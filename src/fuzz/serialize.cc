#include "fuzz/serialize.h"

#include <charconv>
#include <sstream>

#include "common/check.h"
#include "realm/reduction_ops.h"

namespace visrt::fuzz {

namespace {

const char* subject_name(Algorithm a) { return algorithm_name(a); }

Algorithm parse_subject(const std::string& name) {
  static constexpr std::array<Algorithm, 7> kAll = {
      Algorithm::Paint,        Algorithm::Warnock,
      Algorithm::RayCast,      Algorithm::NaivePaint,
      Algorithm::NaiveWarnock, Algorithm::NaiveRayCast,
      Algorithm::Reference,
  };
  for (Algorithm a : kAll)
    if (name == algorithm_name(a)) return a;
  throw ApiError("visprog: unknown subject algorithm '" + name + "'");
}

std::string privilege_token(const Privilege& p) {
  switch (p.kind) {
  case PrivilegeKind::Read: return "read";
  case PrivilegeKind::ReadWrite: return "rw";
  case PrivilegeKind::Reduce:
    switch (p.redop) {
    case kRedopSum: return "red:sum";
    case kRedopProd: return "red:prod";
    case kRedopMin: return "red:min";
    case kRedopMax: return "red:max";
    default: return "red:#" + std::to_string(p.redop);
    }
  }
  return "?";
}

Privilege parse_privilege(const std::string& tok) {
  if (tok == "read") return Privilege::read();
  if (tok == "rw") return Privilege::read_write();
  if (tok.starts_with("red:")) {
    std::string op = tok.substr(4);
    if (op == "sum") return Privilege::reduce(kRedopSum);
    if (op == "prod") return Privilege::reduce(kRedopProd);
    if (op == "min") return Privilege::reduce(kRedopMin);
    if (op == "max") return Privilege::reduce(kRedopMax);
    if (op.starts_with("#"))
      return Privilege::reduce(
          static_cast<ReductionOpID>(std::stoul(op.substr(1))));
  }
  throw ApiError("visprog: unknown privilege token '" + tok + "'");
}

std::string interval_set_token(const IntervalSet& set) {
  if (set.empty()) return "empty";
  std::string out;
  for (const Interval& iv : set.intervals()) {
    if (!out.empty()) out += "+";
    out += "[" + std::to_string(iv.lo) + "," + std::to_string(iv.hi) + "]";
  }
  return out;
}

IntervalSet parse_interval_set(const std::string& tok) {
  if (tok == "empty") return {};
  std::vector<Interval> runs;
  std::size_t pos = 0;
  while (pos < tok.size()) {
    require(tok[pos] == '[', "visprog: malformed interval '" + tok + "'");
    std::size_t comma = tok.find(',', pos);
    std::size_t close = tok.find(']', pos);
    require(comma != std::string::npos && close != std::string::npos &&
                comma < close,
            "visprog: malformed interval '" + tok + "'");
    Interval iv;
    iv.lo = std::stoll(tok.substr(pos + 1, comma - pos - 1));
    iv.hi = std::stoll(tok.substr(comma + 1, close - comma - 1));
    require(iv.lo <= iv.hi, "visprog: inverted interval '" + tok + "'");
    runs.push_back(iv);
    pos = close + 1;
    if (pos < tok.size()) {
      require(tok[pos] == '+', "visprog: malformed interval '" + tok + "'");
      ++pos;
    }
  }
  return IntervalSet::from_intervals(std::move(runs));
}

/// "key=value" accessor with error reporting.
std::string expect_kv(const std::string& tok, std::string_view key) {
  std::string prefix = std::string(key) + "=";
  require(tok.starts_with(prefix),
          "visprog: expected '" + prefix + "...', got '" + tok + "'");
  return tok.substr(prefix.size());
}

std::uint64_t parse_u64(const std::string& s) {
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  require(ec == std::errc() && ptr == s.data() + s.size(),
          "visprog: expected a number, got '" + s + "'");
  return v;
}

bool parse_bool(const std::string& s) {
  std::uint64_t v = parse_u64(s);
  require(v <= 1, "visprog: expected 0 or 1, got '" + s + "'");
  return v == 1;
}

/// Index token like "r12" / "p3" / "f0".
std::uint32_t parse_index(const std::string& tok, char prefix) {
  require(tok.size() >= 2 && tok[0] == prefix,
          std::string("visprog: expected '") + prefix + "<index>', got '" +
              tok + "'");
  return static_cast<std::uint32_t>(parse_u64(tok.substr(1)));
}

/// Requirement groups: "r3 f0 rw | r2 f1 red:sum".
template <typename Req, typename Make>
std::vector<Req> parse_req_groups(const std::vector<std::string>& toks,
                                  std::size_t start, char region_prefix,
                                  const Make& make) {
  std::vector<Req> reqs;
  std::size_t i = start;
  while (i < toks.size()) {
    require(toks.size() - i >= 3, "visprog: truncated requirement");
    std::uint32_t region = parse_index(toks[i], region_prefix);
    std::uint32_t field = parse_index(toks[i + 1], 'f');
    Privilege priv = parse_privilege(toks[i + 2]);
    reqs.push_back(make(region, field, priv));
    i += 3;
    if (i < toks.size()) {
      require(toks[i] == "|",
              "visprog: requirements must be separated by '|'");
      ++i;
      require(i < toks.size(), "visprog: trailing '|'");
    }
  }
  return reqs;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) toks.push_back(tok);
  return toks;
}

/// Parse one tokenized line into a statement.  `saw_header` selects the
/// header-required mode for the first statement of a document.
VisprogStatement parse_statement(const std::vector<std::string>& toks,
                                 bool saw_header) {
  VisprogStatement st;
  const std::string& head = toks[0];
  if (!saw_header) {
    require(head == "visprog" && toks.size() == 2 && toks[1] == "1",
            "visprog: missing 'visprog 1' header");
    st.kind = VisprogStatement::Kind::Header;
    return st;
  }
  if (head == "config") {
    require(toks.size() == 5, "visprog: config takes 4 settings");
    st.kind = VisprogStatement::Kind::Config;
    st.num_nodes =
        static_cast<std::uint32_t>(parse_u64(expect_kv(toks[1], "nodes")));
    st.dcr = parse_bool(expect_kv(toks[2], "dcr"));
    st.tracing = parse_bool(expect_kv(toks[3], "tracing"));
    st.subject = parse_subject(expect_kv(toks[4], "subject"));
  } else if (head == "tuning") {
    require(toks.size() == 6, "visprog: tuning takes 5 knobs");
    st.kind = VisprogStatement::Kind::Tuning;
    st.tuning.paint_occlusion_pruning =
        parse_bool(expect_kv(toks[1], "occlusion"));
    st.tuning.warnock_memoize = parse_bool(expect_kv(toks[2], "memoize"));
    st.tuning.raycast_dominating_writes =
        parse_bool(expect_kv(toks[3], "domwrites"));
    st.tuning.raycast_force_kd_fallback =
        parse_bool(expect_kv(toks[4], "kdfallback"));
    st.tuning.inject_paint_reduce_bug =
        parse_bool(expect_kv(toks[5], "paintbug"));
  } else if (head == "tree") {
    require(toks.size() == 3, "visprog: tree takes a name and a size");
    st.kind = VisprogStatement::Kind::Tree;
    st.tree.name = toks[1];
    st.tree.size = static_cast<coord_t>(parse_u64(toks[2]));
  } else if (head == "partition") {
    require(toks.size() >= 4,
            "visprog: partition takes a name, parent and subspaces");
    st.kind = VisprogStatement::Kind::Partition;
    st.partition.name = toks[1];
    st.partition.parent =
        static_cast<std::uint32_t>(parse_u64(expect_kv(toks[2], "parent")));
    for (std::size_t i = 3; i < toks.size(); ++i)
      st.partition.subspaces.push_back(parse_interval_set(toks[i]));
  } else if (head == "field") {
    require(toks.size() == 4, "visprog: field takes a name, tree and mod");
    st.kind = VisprogStatement::Kind::Field;
    st.field.name = toks[1];
    st.field.tree =
        static_cast<std::uint32_t>(parse_u64(expect_kv(toks[2], "tree")));
    st.field.init_mod =
        static_cast<coord_t>(parse_u64(expect_kv(toks[3], "mod")));
  } else if (head == "task") {
    require(toks.size() >= 5, "visprog: truncated task");
    st.kind = VisprogStatement::Kind::Item;
    st.item.kind = StreamItem::Kind::Task;
    st.item.task.mapped_node =
        static_cast<NodeID>(parse_u64(expect_kv(toks[1], "node")));
    st.item.task.salt = parse_u64(expect_kv(toks[2], "salt"));
    st.item.task.requirements = parse_req_groups<ReqSpec>(
        toks, 3, 'r',
        [](std::uint32_t region, std::uint32_t field, const Privilege& priv) {
          return ReqSpec{region, field, priv};
        });
  } else if (head == "index") {
    require(toks.size() >= 4, "visprog: truncated index launch");
    st.kind = VisprogStatement::Kind::Item;
    st.item.kind = StreamItem::Kind::Index;
    st.item.index.salt = parse_u64(expect_kv(toks[1], "salt"));
    st.item.index.requirements = parse_req_groups<IndexReqSpec>(
        toks, 2, 'p',
        [](std::uint32_t partition, std::uint32_t field,
           const Privilege& priv) {
          return IndexReqSpec{partition, field, priv};
        });
  } else if (head == "begin_trace") {
    require(toks.size() == 2, "visprog: begin_trace takes an id");
    st.kind = VisprogStatement::Kind::Item;
    st.item.kind = StreamItem::Kind::BeginTrace;
    st.item.trace_id = static_cast<std::uint32_t>(parse_u64(toks[1]));
  } else if (head == "end_trace") {
    st.kind = VisprogStatement::Kind::Item;
    st.item.kind = StreamItem::Kind::EndTrace;
  } else if (head == "end_iteration") {
    st.kind = VisprogStatement::Kind::Item;
    st.item.kind = StreamItem::Kind::EndIteration;
  } else {
    throw ApiError("visprog: unknown directive '" + head + "'");
  }
  return st;
}

} // namespace

void write_visprog(std::ostream& os, const ProgramSpec& spec) {
  os << "visprog 1\n";
  os << "config nodes=" << spec.num_nodes << " dcr=" << (spec.dcr ? 1 : 0)
     << " tracing=" << (spec.tracing ? 1 : 0)
     << " subject=" << subject_name(spec.subject) << "\n";
  const EngineTuning& t = spec.tuning;
  os << "tuning occlusion=" << (t.paint_occlusion_pruning ? 1 : 0)
     << " memoize=" << (t.warnock_memoize ? 1 : 0)
     << " domwrites=" << (t.raycast_dominating_writes ? 1 : 0)
     << " kdfallback=" << (t.raycast_force_kd_fallback ? 1 : 0)
     << " paintbug=" << (t.inject_paint_reduce_bug ? 1 : 0) << "\n";
  for (const TreeSpec& tree : spec.trees)
    os << "tree " << tree.name << " " << tree.size << "\n";
  for (const PartitionSpec& part : spec.partitions) {
    os << "partition " << part.name << " parent=" << part.parent;
    for (const IntervalSet& s : part.subspaces)
      os << " " << interval_set_token(s);
    os << "\n";
  }
  for (const FieldSpec& field : spec.fields)
    os << "field " << field.name << " tree=" << field.tree
       << " mod=" << field.init_mod << "\n";
  for (const StreamItem& item : spec.stream) {
    switch (item.kind) {
    case StreamItem::Kind::Task: {
      os << "task node=" << item.task.mapped_node
         << " salt=" << item.task.salt;
      for (std::size_t i = 0; i < item.task.requirements.size(); ++i) {
        const ReqSpec& req = item.task.requirements[i];
        os << (i ? " | " : " ") << "r" << req.region << " f" << req.field
           << " " << privilege_token(req.privilege);
      }
      os << "\n";
      break;
    }
    case StreamItem::Kind::Index: {
      os << "index salt=" << item.index.salt;
      for (std::size_t i = 0; i < item.index.requirements.size(); ++i) {
        const IndexReqSpec& req = item.index.requirements[i];
        os << (i ? " | " : " ") << "p" << req.partition << " f" << req.field
           << " " << privilege_token(req.privilege);
      }
      os << "\n";
      break;
    }
    case StreamItem::Kind::BeginTrace:
      os << "begin_trace " << item.trace_id << "\n";
      break;
    case StreamItem::Kind::EndTrace:
      os << "end_trace\n";
      break;
    case StreamItem::Kind::EndIteration:
      os << "end_iteration\n";
      break;
    }
  }
}

std::string to_visprog(const ProgramSpec& spec) {
  std::ostringstream os;
  write_visprog(os, spec);
  return os.str();
}

void apply_statement(ProgramSpec& spec, const VisprogStatement& st) {
  switch (st.kind) {
  case VisprogStatement::Kind::Header: break;
  case VisprogStatement::Kind::Config:
    spec.num_nodes = st.num_nodes;
    spec.dcr = st.dcr;
    spec.tracing = st.tracing;
    spec.subject = st.subject;
    break;
  case VisprogStatement::Kind::Tuning: spec.tuning = st.tuning; break;
  case VisprogStatement::Kind::Tree: spec.trees.push_back(st.tree); break;
  case VisprogStatement::Kind::Partition:
    spec.partitions.push_back(st.partition);
    break;
  case VisprogStatement::Kind::Field: spec.fields.push_back(st.field); break;
  case VisprogStatement::Kind::Item: spec.stream.push_back(st.item); break;
  }
}

void VisprogStreamParser::feed(std::string_view bytes) {
  // Drop the consumed prefix before appending so a long-running session
  // holds at most one partial line plus the newest chunk.
  if (pos_ > 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes);
}

VisprogStreamParser::Status VisprogStreamParser::next(VisprogStatement& out) {
  for (;;) {
    std::size_t nl = buffer_.find('\n', pos_);
    std::string line;
    if (nl == std::string::npos) {
      if (!finished_) return Status::NeedMore;
      if (pos_ >= buffer_.size()) return Status::End;
      line = buffer_.substr(pos_);
      byte_offset_ += buffer_.size() - pos_;
      pos_ = buffer_.size();
    } else {
      line = buffer_.substr(pos_, nl - pos_);
      byte_offset_ += nl + 1 - pos_;
      pos_ = nl + 1;
    }
    ++line_;
    std::vector<std::string> toks = tokenize(line);
    if (toks.empty() || toks[0].starts_with("#")) continue;
    try {
      out = parse_statement(toks, saw_header_);
    } catch (const ApiError& e) {
      throw ApiError("line " + std::to_string(line_) + ": " + e.what());
    }
    out.line = line_;
    if (out.kind == VisprogStatement::Kind::Header) saw_header_ = true;
    return Status::Statement;
  }
}

ProgramSpec parse_visprog(const std::string& text) {
  std::istringstream is(text);
  return read_visprog(is);
}

ProgramSpec read_visprog(std::istream& is) {
  ProgramSpec spec;
  spec.tracing = true;
  VisprogStreamParser parser;
  char chunk[4096];
  while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0)
    parser.feed({chunk, static_cast<std::size_t>(is.gcount())});
  parser.finish();
  VisprogStatement st;
  while (parser.next(st) == VisprogStreamParser::Status::Statement)
    apply_statement(spec, st);
  try {
    require(parser.saw_header(), "visprog: empty document");
    validate(spec);
  } catch (const ApiError& e) {
    throw ApiError("line " + std::to_string(parser.line()) + ": " + e.what());
  }
  return spec;
}

} // namespace visrt::fuzz
