#include "obs/trace.h"

#include <cstdio>

namespace ccdb::obs {

namespace internal {
thread_local LayerCounters* g_active = nullptr;
}  // namespace internal

LayerCounters& LayerCounters::operator+=(const LayerCounters& other) {
  conjunctions += other.conjunctions;
  box_prunes += other.box_prunes;
  boxes_built += other.boxes_built;
  fm_eliminations += other.fm_eliminations;
  box_solves += other.box_solves;
  redundancy_culls += other.redundancy_culls;
  index_node_visits += other.index_node_visits;
  index_leaf_hits += other.index_leaf_hits;
  pages_read += other.pages_read;
  pool_hits += other.pool_hits;
  return *this;
}

LayerCounters LayerCounters::operator-(const LayerCounters& other) const {
  LayerCounters out;
  out.conjunctions = conjunctions - other.conjunctions;
  out.box_prunes = box_prunes - other.box_prunes;
  out.boxes_built = boxes_built - other.boxes_built;
  out.fm_eliminations = fm_eliminations - other.fm_eliminations;
  out.box_solves = box_solves - other.box_solves;
  out.redundancy_culls = redundancy_culls - other.redundancy_culls;
  out.index_node_visits = index_node_visits - other.index_node_visits;
  out.index_leaf_hits = index_leaf_hits - other.index_leaf_hits;
  out.pages_read = pages_read - other.pages_read;
  out.pool_hits = pool_hits - other.pool_hits;
  return out;
}

bool LayerCounters::IsZero() const {
  return conjunctions == 0 && box_prunes == 0 && boxes_built == 0 &&
         fm_eliminations == 0 && box_solves == 0 && redundancy_culls == 0 &&
         index_node_visits == 0 && index_leaf_hits == 0 && pages_read == 0 &&
         pool_hits == 0;
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
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"wall_us\":%.3f,\"self_us\":%.3f,\"in\":%llu,\"out\":%llu,"
      "\"conjunctions\":%llu,\"box_prunes\":%llu,\"boxes_built\":%llu,"
      "\"fm_eliminations\":%llu,\"box_solves\":%llu,"
      "\"redundancy_culls\":%llu,\"index_node_visits\":%llu,"
      "\"index_leaf_hits\":%llu,\"pages_read\":%llu,\"pool_hits\":%llu",
      wall_us, self_us, static_cast<unsigned long long>(tuples_in),
      static_cast<unsigned long long>(tuples_out),
      static_cast<unsigned long long>(counters.conjunctions),
      static_cast<unsigned long long>(counters.box_prunes),
      static_cast<unsigned long long>(counters.boxes_built),
      static_cast<unsigned long long>(counters.fm_eliminations),
      static_cast<unsigned long long>(counters.box_solves),
      static_cast<unsigned long long>(counters.redundancy_culls),
      static_cast<unsigned long long>(counters.index_node_visits),
      static_cast<unsigned long long>(counters.index_leaf_hits),
      static_cast<unsigned long long>(counters.pages_read),
      static_cast<unsigned long long>(counters.pool_hits));
  std::string out = "{\"op\":\"" + JsonEscape(label) + "\",";
  out += buf;
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
