#include "obs/trace.h"

#include <cstdio>

namespace ccdb::obs {

namespace internal {
thread_local LayerCounters* g_active = nullptr;
}  // namespace internal

LayerCounters& LayerCounters::operator+=(const LayerCounters& other) {
  for (const LayerCounterField& f : kLayerCounterFields) {
    this->*f.member += other.*f.member;
  }
  return *this;
}

LayerCounters LayerCounters::operator-(const LayerCounters& other) const {
  LayerCounters out;
  for (const LayerCounterField& f : kLayerCounterFields) {
    out.*f.member = this->*f.member - other.*f.member;
  }
  return out;
}

bool LayerCounters::IsZero() const {
  for (const LayerCounterField& f : kLayerCounterFields) {
    if (this->*f.member != 0) return false;
  }
  return true;
}

std::string LayerCounters::ToString() const {
  char buf[224];
  std::snprintf(
      buf, sizeof(buf),
      "conj %llu, pruned %llu, fm %llu, culls %llu, idx %llu/%llu, "
      "io %llu/%llu",
      static_cast<unsigned long long>(conjunctions),
      static_cast<unsigned long long>(box_prunes),
      static_cast<unsigned long long>(fm_eliminations),
      static_cast<unsigned long long>(redundancy_culls),
      static_cast<unsigned long long>(index_node_visits),
      static_cast<unsigned long long>(index_leaf_hits),
      static_cast<unsigned long long>(pages_read),
      static_cast<unsigned long long>(pool_hits));
  std::string out = buf;
  if (boxes_built != 0) out += ", boxed " + std::to_string(boxes_built);
  if (box_solves != 0) out += ", box solves " + std::to_string(box_solves);
  if (fm_pairings != 0) out += ", fm pairs " + std::to_string(fm_pairings);
  return out;
}

CounterScope::CounterScope() : prev_(internal::g_active) {
  internal::g_active = &counters_;
}

CounterScope::~CounterScope() {
  internal::g_active = prev_;
  if (prev_ != nullptr) *prev_ += counters_;
}

size_t TraceNode::NodeCount() const {
  size_t n = 1;
  for (const TraceNode& child : children) n += child.NodeCount();
  return n;
}

uint64_t TraceNode::SumTuplesOut() const {
  uint64_t n = tuples_out;
  for (const TraceNode& child : children) n += child.SumTuplesOut();
  return n;
}

LayerCounters TraceNode::TotalCounters() const {
  LayerCounters total = counters;
  for (const TraceNode& child : children) total += child.TotalCounters();
  return total;
}

namespace {

/// "1.23ms" / "45.6us" — microsecond values at human scale.
std::string FormatDuration(double us) {
  char buf[48];
  if (us >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", us / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", us);
  }
  return buf;
}

}  // namespace

std::string TraceNode::ToString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += label;
  out += "  (wall ";
  out += FormatDuration(wall_us);
  out += ", self ";
  out += FormatDuration(self_us);
  char buf[96];
  std::snprintf(buf, sizeof(buf), ", in %llu, out %llu | ",
                static_cast<unsigned long long>(tuples_in),
                static_cast<unsigned long long>(tuples_out));
  out += buf;
  out += counters.ToString();
  out += ")";
  for (const TraceNode& child : children) {
    out += "\n" + child.ToString(indent + 1);
  }
  return out;
}

std::string TraceNode::ToJson() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"wall_us\":%.3f,\"self_us\":%.3f,\"in\":%llu,\"out\":%llu",
                wall_us, self_us, static_cast<unsigned long long>(tuples_in),
                static_cast<unsigned long long>(tuples_out));
  std::string out = "{\"op\":\"" + JsonEscape(label) + "\",";
  out += buf;
  for (const LayerCounterField& f : kLayerCounterFields) {
    out += ",\"";
    out += f.json_key;
    out += "\":";
    out += std::to_string(counters.*f.member);
  }
  if (!children.empty()) {
    out += ",\"children\":[";
    for (size_t i = 0; i < children.size(); ++i) {
      if (i) out += ',';
      out += children[i].ToJson();
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace ccdb::obs
