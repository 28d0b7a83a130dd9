// Tests for visibility/dep_graph.h.
#include "visibility/dep_graph.h"

#include <gtest/gtest.h>

#include "common/check.h"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

namespace visrt {
namespace {

TEST(DepGraph, EmptyGraph) {
  DepGraph g;
  EXPECT_EQ(g.task_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.critical_path(), 0u);
}

TEST(DepGraph, ChainCriticalPath) {
  DepGraph g;
  for (LaunchID i = 0; i < 5; ++i) {
    g.add_task(i);
    if (i > 0) g.add_edges(i, std::array{i - 1});
  }
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.critical_path(), 5u);
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(3, 2));
  EXPECT_TRUE(g.reaches(0, 4));
  EXPECT_FALSE(g.reaches(4, 0));
}

TEST(DepGraph, ParallelTasksShortCriticalPath) {
  DepGraph g;
  g.add_task(0);
  for (LaunchID i = 1; i <= 8; ++i) {
    g.add_task(i);
    g.add_edges(i, std::array{LaunchID{0}});
  }
  EXPECT_EQ(g.critical_path(), 2u);
  EXPECT_FALSE(g.reaches(1, 2)); // siblings unordered
}

TEST(DepGraph, TransitiveReachability) {
  DepGraph g;
  g.add_task(0);
  g.add_task(1);
  g.add_task(2);
  g.add_edges(2, std::array{LaunchID{0}});
  g.add_task(3);
  g.add_task(4);
  g.add_edges(4, std::array{LaunchID{2}});
  g.add_task(5);
  g.add_edges(5, std::array{LaunchID{4}, LaunchID{1}});
  EXPECT_TRUE(g.reaches(0, 5));
  EXPECT_TRUE(g.reaches(1, 5));
  EXPECT_FALSE(g.reaches(3, 5));
  EXPECT_FALSE(g.reaches(0, 1));
}

TEST(DepGraph, DuplicateEdgesIgnored) {
  DepGraph g;
  g.add_task(0);
  g.add_task(1);
  g.add_edges(1, std::array{LaunchID{0}});
  g.add_edges(1, std::array{LaunchID{0}});
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(DepGraph, ForwardEdgeRejected) {
  DepGraph g;
  g.add_task(0);
  g.add_task(1);
  EXPECT_THROW(g.add_edges(0, std::array{LaunchID{1}}), ApiError);
  EXPECT_THROW(g.add_edges(1, std::array{LaunchID{1}}), ApiError);
}

TEST(DepGraph, OutOfOrderRegistrationRejected) {
  DepGraph g;
  g.add_task(0);
  EXPECT_THROW(g.add_task(2), ApiError);
}

TEST(DepGraph, EdgesToAnOlderLaunchRejected) {
  DepGraph g;
  for (LaunchID i = 0; i < 3; ++i) g.add_task(i);
  EXPECT_THROW(g.add_edges(1, std::array{LaunchID{0}}), ApiError);
  g.add_edges(2, std::array{LaunchID{1}, LaunchID{0}});
  g.add_task(3);
  EXPECT_THROW(g.add_edges(2, std::array{LaunchID{1}}), ApiError);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.preds(2).size(), 2u);
  EXPECT_TRUE(g.preds(3).empty());
  // Once every launch is retired there is no newest resident launch.
  g.retire_prefix(4);
  EXPECT_THROW(g.add_edges(3, std::array<LaunchID, 0>{}), ApiError);
}

TEST(DepGraph, RetirementKeepsTheResidentRuns) {
  // Cut one graph at several points while a twin keeps everything; both
  // receive the same launches and edges (each launch's right after it, in
  // an unsorted order, never naming a launch below the latest cut).
  DepGraph g, twin;
  LaunchID floor = 0;
  LaunchID next = 0;
  auto grow_to = [&](LaunchID end) {
    for (; next < end; ++next) {
      g.add_task(next);
      twin.add_task(next);
      std::vector<LaunchID> froms;
      for (LaunchID back : {LaunchID{5}, LaunchID{1}, LaunchID{3}, LaunchID{1}})
        if (next >= floor + back) froms.push_back(next - back);
      g.add_edges(next, froms);
      twin.add_edges(next, froms);
    }
  };
  std::size_t edges_into_retired = 0;
  auto cut_at = [&](LaunchID cut) {
    g.retire_prefix(cut);
    floor = cut;
    grow_to(next + 2);
    const std::string label = "cut " + std::to_string(cut);
    EXPECT_EQ(g.base(), cut) << label;
    ASSERT_EQ(g.task_count(), twin.task_count()) << label;
    EXPECT_EQ(g.edge_count(), twin.edge_count()) << label;
    EXPECT_EQ(g.critical_path(), twin.critical_path()) << label;
    EXPECT_EQ(g.stream_hash(), twin.stream_hash()) << label;
    if (cut > 0) {
      EXPECT_THROW(g.preds(cut - 1), ApiError) << label;
    }
    for (LaunchID to = cut; to < g.task_count(); ++to) {
      const std::span<const LaunchID> p = g.preds(to);
      EXPECT_TRUE(std::ranges::equal(p, twin.preds(to)))
          << label << " launch " << to;
      EXPECT_TRUE(std::ranges::is_sorted(p)) << label << " launch " << to;
      edges_into_retired += static_cast<std::size_t>(
          std::ranges::count_if(p, [&](LaunchID f) { return f < cut; }));
      for (LaunchID from = 0; from < to; ++from) {
        EXPECT_EQ(g.has_edge(from, to), twin.has_edge(from, to))
            << label << " edge " << from << " -> " << to;
        if (from >= cut) {
          EXPECT_EQ(g.reaches(from, to), twin.reaches(from, to))
              << label << " path " << from << " -> " << to;
        }
      }
    }
  };
  for (LaunchID cut : {LaunchID{3}, LaunchID{11}, LaunchID{12}, LaunchID{24},
                       LaunchID{28}}) {
    grow_to(cut + 4);
    cut_at(cut);
  }
  cut_at(static_cast<LaunchID>(g.task_count())); // every resident launch
  grow_to(next + 6);
  cut_at(next - 3);
  EXPECT_GT(edges_into_retired, 0u);
}

} // namespace
} // namespace visrt
