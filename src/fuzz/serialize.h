// visrt/fuzz/serialize.h
//
// The .visprog text format: a deterministic, human-readable serialization
// of a ProgramSpec, used for the minimized-repro corpus.  One line per
// declaration, whitespace-separated tokens, order fixed (config, tuning,
// trees, partitions, fields, stream), so serializing the same spec always
// produces the same bytes and `parse(to_visprog(s)) == s`.
//
//   visprog 1
//   config nodes=2 dcr=0 tracing=1 subject=raycast
//   tuning occlusion=1 memoize=1 domwrites=1 kdfallback=0 paintbug=0
//   tree A 160
//   partition P0 parent=0 [0,39] [40,79]+[100,119] empty
//   field f0 tree=0 mod=11
//   task node=1 salt=5 r3 f0 rw | r2 f1 red:sum
//   index salt=0 p0 f0 rw | p1 f1 read
//   begin_trace 1
//   end_trace
//   end_iteration
//
// Regions are `r<table-index>`, partitions `p<table-index>`, fields
// `f<table-index>`; subspaces are `[lo,hi]` runs joined by `+` (or the
// token `empty`).  Lines starting with `#` are comments.
//
// Two readers sit on one tokenizer: the batch `read_visprog` (whole
// document -> validated ProgramSpec) and the pull-based
// `VisprogStreamParser`, which yields one statement at a time and treats
// partial trailing input as a recoverable NeedMore condition so a server
// can parse straight off a socket without re-buffering whole documents.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "fuzz/program.h"

namespace visrt::fuzz {

/// Canonical text rendering of a spec.
std::string to_visprog(const ProgramSpec& spec);
void write_visprog(std::ostream& os, const ProgramSpec& spec);

/// Parse a .visprog document; throws ApiError with a line number on any
/// syntactic or semantic error (the result is always validate()-clean).
ProgramSpec parse_visprog(const std::string& text);
ProgramSpec read_visprog(std::istream& is);

/// One parsed .visprog line.  Only the member selected by `kind` is
/// meaningful; `line` is the 1-based source line the statement came from.
struct VisprogStatement {
  enum class Kind {
    Header,    ///< the `visprog 1` document header
    Config,    ///< nodes / dcr / tracing / subject
    Tuning,    ///< the five EngineTuning knobs
    Tree,      ///< region-tree declaration
    Partition, ///< partition declaration
    Field,     ///< field declaration
    Item,      ///< stream item (task / index / trace / end_iteration)
  };
  Kind kind = Kind::Header;
  std::uint32_t num_nodes = 1; ///< Config
  bool dcr = false;            ///< Config
  bool tracing = true;         ///< Config
  Algorithm subject = Algorithm::RayCast; ///< Config
  EngineTuning tuning;         ///< Tuning
  TreeSpec tree;               ///< Tree
  PartitionSpec partition;     ///< Partition
  FieldSpec field;             ///< Field
  StreamItem item;             ///< Item
  std::size_t line = 0;
};

/// Fold a parsed statement into a spec under construction (declarations
/// land in their table vectors, stream items append to the stream).  The
/// statement is NOT validated here; batch readers validate the finished
/// spec, incremental consumers validate per statement with
/// `validate_decls` / `validate_item`.
void apply_statement(ProgramSpec& spec, const VisprogStatement& st);

/// Pull-based line parser for `.visprog` streams.
///
/// Feed arbitrary byte chunks with `feed`; pull one statement at a time
/// with `next`.  A trailing line with no terminator is a *recoverable*
/// condition — `next` returns NeedMore (with `byte_offset()` naming the
/// first unconsumed byte) until more input or `finish()` arrives, instead
/// of failing the whole document.  Malformed *complete* lines throw
/// ApiError; the parser stays usable and subsequent lines still parse, so
/// a server can reject one statement without dropping the session.
class VisprogStreamParser {
public:
  enum class Status {
    Statement, ///< `out` holds the next statement
    NeedMore,  ///< buffered input ends mid-line; feed more or finish()
    End,       ///< all input consumed (only after finish())
  };

  /// Append raw input bytes.
  void feed(std::string_view bytes);
  /// Declare end-of-input: a pending unterminated line becomes parseable.
  void finish() { finished_ = true; }

  /// Pull the next statement.  Blank and `#` comment lines are skipped.
  /// Throws ApiError (message prefixed `line N:`) on a malformed line or
  /// a non-header first statement.
  Status next(VisprogStatement& out);

  /// Bytes consumed so far — on NeedMore, the offset where the partial
  /// statement begins.
  std::size_t byte_offset() const { return byte_offset_; }
  /// 1-based line number of the most recently consumed line.
  std::size_t line() const { return line_; }
  bool saw_header() const { return saw_header_; }

private:
  std::string buffer_;
  std::size_t pos_ = 0;
  std::size_t byte_offset_ = 0;
  std::size_t line_ = 0;
  bool finished_ = false;
  bool saw_header_ = false;
};

} // namespace visrt::fuzz
