#include "sim/message_ledger.h"

#include <sstream>

namespace visrt::sim {

const char* message_kind_name(MessageKind kind) {
  switch (kind) {
  case MessageKind::AnalysisRequest: return "analysis-request";
  case MessageKind::AnalysisResponse: return "analysis-response";
  case MessageKind::Copy: return "copy";
  case MessageKind::Reduction: return "reduction";
  }
  return "?";
}

void MessageLedger::enable(std::size_t num_nodes) {
  enabled_ = true;
  num_nodes_ = num_nodes;
}

void MessageLedger::record(const MessageRecord& record) {
  if (!enabled_) return;
  records_.push_back(record);
}

std::vector<NodeTraffic> MessageLedger::per_node() const {
  std::vector<NodeTraffic> out(num_nodes_);
  for (const MessageRecord& r : records_) {
    if (r.src < out.size()) {
      ++out[r.src].sent;
      out[r.src].sent_bytes += r.bytes;
    }
    if (r.dst < out.size()) {
      ++out[r.dst].recv;
      out[r.dst].recv_bytes += r.bytes;
    }
  }
  return out;
}

std::vector<std::uint64_t> MessageLedger::by_kind() const {
  std::vector<std::uint64_t> out(4, 0);
  for (const MessageRecord& r : records_)
    ++out[static_cast<std::size_t>(r.kind)];
  return out;
}

std::string MessageLedger::json() const {
  std::ostringstream os;
  os << "{\"total\":" << records_.size() << ",\"by_kind\":{";
  std::vector<std::uint64_t> kinds = by_kind();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    if (k) os << ",";
    os << "\"" << message_kind_name(static_cast<MessageKind>(k))
       << "\":" << kinds[k];
  }
  os << "},\"per_node\":[";
  std::vector<NodeTraffic> nodes = per_node();
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (n) os << ",";
    os << "{\"sent\":" << nodes[n].sent << ",\"recv\":" << nodes[n].recv
       << ",\"sent_bytes\":" << nodes[n].sent_bytes
       << ",\"recv_bytes\":" << nodes[n].recv_bytes << "}";
  }
  os << "]}";
  return os.str();
}

} // namespace visrt::sim
