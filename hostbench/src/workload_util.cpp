#include "workload_util.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hostbench {

double committed_metric(const std::string& dir, const std::string& bench,
                        const std::string& metric) {
  const std::string path = dir + "/" + bench + ".json";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read baseline " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  // The baselines are flat "name": number maps; the first occurrence of the
  // quoted key followed by a colon is the metric.
  const std::string key = "\"" + metric + "\"";
  std::size_t pos = text.find(key);
  while (pos != std::string::npos) {
    std::size_t p = pos + key.size();
    while (p < text.size() && (text[p] == ' ' || text[p] == '\n')) ++p;
    if (p < text.size() && text[p] == ':') {
      const char* start = text.c_str() + p + 1;
      char* end = nullptr;
      const double v = std::strtod(start, &end);
      if (end != start) return v;
    }
    pos = text.find(key, pos + 1);
  }
  throw std::runtime_error("baseline " + path + " has no metric " + metric);
}

}  // namespace hostbench
