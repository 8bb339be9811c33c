// spp_inline: rewrites request lines with a "random" payload so that the
// same instance travels as an inline "spp" payload. Each such line is
// resolved with api::wire::parse_request; the resolved SPP instance (name,
// destination, edges and ranked permitted paths) replaces the payload, and
// every other member is kept in order. Other lines are copied unchanged.
//
//   spp_inline < requests.jsonl > inline.jsonl
//
// The benchmark uses it to send the same random instances without paying
// for their generation on the server's event-loop thread.
#include <iostream>
#include <stdexcept>
#include <string>
#include <variant>

#include "api/json.h"
#include "api/request.h"
#include "api/wire.h"

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string spp_json(const fsr::spp::SppInstance& instance) {
  std::string out = "{\"name\": " + quoted(instance.name()) +
                    ", \"destination\": " + quoted(instance.destination()) +
                    ", \"edges\": [";
  bool first = true;
  for (const auto& [u, v] : instance.edges()) {
    out += (first ? "[" : ", [") + quoted(u) + ", " + quoted(v) + "]";
    first = false;
  }
  out += "], \"paths\": [";
  first = true;
  for (const std::string& node : instance.nodes()) {
    for (const fsr::spp::Path& path : instance.permitted(node)) {
      out += first ? "[" : ", [";
      for (std::size_t i = 0; i < path.size(); ++i) {
        out += (i ? ", " : "") + quoted(path[i]);
      }
      out += "]";
      first = false;
    }
  }
  return out + "]}";
}

const fsr::spp::SppInstance* instance_of(const fsr::api::Request& request) {
  return std::visit(
      [](const auto& r) -> const fsr::spp::SppInstance* {
        if constexpr (requires { r.spp; }) {
          return r.spp.get();
        } else {
          return nullptr;
        }
      },
      request);
}

// Renders a scalar or array member back to JSON (request lines hold only
// strings, integers and the payload object).
std::string render(const fsr::api::json::Value& value) {
  using Type = fsr::api::json::Value::Type;
  switch (value.type()) {
    case Type::string:
      return quoted(value.as_string("value"));
    case Type::number:
      return std::to_string(value.as_u64("value"));
    case Type::boolean:
      return value.as_bool("value") ? "true" : "false";
    default:
      throw std::runtime_error("unsupported member in request line");
  }
}

}  // namespace

int main() {
  std::string line;
  while (std::getline(std::cin, line)) {
    const fsr::api::json::Value body = fsr::api::json::parse(line);
    const fsr::api::Request request = fsr::api::wire::parse_request(line);
    const fsr::spp::SppInstance* instance = instance_of(request);
    if (body.find("random") == nullptr || instance == nullptr) {
      std::cout << line << '\n';
      continue;
    }
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : body.as_object("request")) {
      out += first ? "" : ", ";
      first = false;
      if (key == "random") {
        out += "\"spp\": " + spp_json(*instance);
      } else {
        out += quoted(key) + ": " + render(value);
      }
    }
    std::cout << out << "}\n";
  }
  return 0;
}
