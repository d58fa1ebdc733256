#include "overlay/config.hpp"

#include <stdexcept>

namespace egoist::overlay {

const char* to_string(Policy policy) {
  switch (policy) {
    case Policy::kBestResponse: return "BR";
    case Policy::kHybridBR: return "HybridBR";
    case Policy::kRandom: return "k-Random";
    case Policy::kClosest: return "k-Closest";
    case Policy::kRegular: return "k-Regular";
    case Policy::kFullMesh: return "FullMesh";
  }
  return "?";
}

const char* to_string(Metric metric) {
  switch (metric) {
    case Metric::kDelayPing: return "delay(ping)";
    case Metric::kDelayCoords: return "delay(coords)";
    case Metric::kNodeLoad: return "node-load";
    case Metric::kBandwidth: return "avail-bw";
  }
  return "?";
}

const char* to_string(Backbone backbone) {
  switch (backbone) {
    case Backbone::kCycles: return "cycles";
    case Backbone::kMst: return "mst";
  }
  return "?";
}

Policy parse_policy(const std::string& name) {
  if (name == "BR") return Policy::kBestResponse;
  if (name == "HybridBR") return Policy::kHybridBR;
  if (name == "k-Random") return Policy::kRandom;
  if (name == "k-Closest") return Policy::kClosest;
  if (name == "k-Regular") return Policy::kRegular;
  if (name == "FullMesh") return Policy::kFullMesh;
  throw std::invalid_argument(
      "unknown policy '" + name +
      "' (want BR, HybridBR, k-Random, k-Closest, k-Regular, FullMesh)");
}

Metric parse_metric(const std::string& name) {
  if (name == "delay(ping)") return Metric::kDelayPing;
  if (name == "delay(coords)") return Metric::kDelayCoords;
  if (name == "node-load") return Metric::kNodeLoad;
  if (name == "avail-bw") return Metric::kBandwidth;
  throw std::invalid_argument(
      "unknown metric '" + name +
      "' (want delay(ping), delay(coords), node-load, avail-bw)");
}

Backbone parse_backbone(const std::string& name) {
  if (name == "cycles") return Backbone::kCycles;
  if (name == "mst") return Backbone::kMst;
  throw std::invalid_argument("unknown backbone '" + name +
                              "' (want cycles, mst)");
}

}  // namespace egoist::overlay
