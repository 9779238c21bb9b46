#include "serve/wire.hpp"

#include <cstdio>
#include <limits>
#include <type_traits>

#include "core/types.hpp"
#include "obs/metrics_json.hpp"

namespace ringstab::serve {

namespace {

using obs::json::Value;

std::size_t as_size(const Value& v, const std::string& key) {
  if (!v.is_number())
    throw ModelError(std::string("serve wire: field '") + key +
                     "' must be a non-negative integer");
  const std::uint64_t raw =
      v.as_u64(std::numeric_limits<std::uint64_t>::max());
  if (raw == std::numeric_limits<std::uint64_t>::max() &&
      v.number != "18446744073709551615")
    throw ModelError(std::string("serve wire: field '") + key +
                     "' is not a valid u64: " + v.number);
  return static_cast<std::size_t>(raw);
}

bool as_bool(const Value& v, const std::string& key) {
  if (v.kind != Value::Kind::Bool)
    throw ModelError(std::string("serve wire: field '") + key +
                     "' must be a boolean");
  return v.boolean;
}

std::string as_string(const Value& v, const std::string& key) {
  if (!v.is_string())
    throw ModelError(std::string("serve wire: field '") + key +
                     "' must be a string");
  return v.str;
}

double as_probability(const Value& v, const std::string& key) {
  if (!v.is_number())
    throw ModelError(std::string("serve wire: field '") + key +
                     "' must be a number");
  const double d = v.as_double(-1.0);
  if (!(d >= 0.0 && d <= 1.0))
    throw ModelError(std::string("serve wire: field '") + key +
                     "' must be a probability in [0, 1]");
  return d;
}

/// Render a probability with enough digits to round-trip exactly through
/// strtod, so the coin survives encode/decode bit-for-bit.
Value number_double(double d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return Value::number_raw(buf);
}

/// One option's wire value, by the member's type.
template <typename T>
Value option_value(const T& v) {
  if constexpr (std::is_same_v<T, bool>)
    return Value::boolean_v(v);
  else if constexpr (std::is_same_v<T, double>)
    return number_double(v);
  else if constexpr (std::is_same_v<T, std::string>)
    return Value::string(v);
  else
    return Value::number_u64(v);
}

/// Decode one option into its member's type; `key` names it in errors.
template <typename T>
T option_from(const Value& v, const std::string& key) {
  if constexpr (std::is_same_v<T, bool>)
    return as_bool(v, key);
  else if constexpr (std::is_same_v<T, double>)
    return as_probability(v, key);
  else if constexpr (std::is_same_v<T, std::string>)
    return as_string(v, key);
  else
    return static_cast<T>(as_size(v, key));
}

}  // namespace

std::string encode_request(const Request& req) {
  Value doc = Value::object();
  doc.add("cmd", Value::string(req.cmd));
  doc.add("source", Value::string(req.source));
  if (!req.name.empty()) doc.add("name", Value::string(req.name));
  if (req.k != 0) doc.add("k", Value::number_u64(req.k));
  // Defaults are elided from the frame and restored on decode.
  const RequestOptions defaults;
  Value options = Value::object();
  for_each_option_field([&](const auto& field) {
    const auto& v = req.options.*field.member;
    if (v != defaults.*field.member)
      options.add(field.wire, option_value(v));
  });
  if (!options.members.empty()) doc.add("options", std::move(options));
  return obs::json::dump(doc);
}

Request decode_request(const std::string& line) {
  Value doc;
  try {
    doc = obs::json::parse(line);
  } catch (const obs::json::ParseError& e) {
    throw ModelError(std::string("serve wire: malformed request JSON: ") +
                     e.what());
  }
  if (!doc.is_object())
    throw ModelError("serve wire: request must be a JSON object");

  Request req;
  bool saw_cmd = false;
  for (const auto& [key, value] : doc.members) {
    if (key == "cmd") {
      req.cmd = as_string(value, "cmd");
      saw_cmd = true;
    } else if (key == "source") {
      req.source = as_string(value, "source");
    } else if (key == "name") {
      req.name = as_string(value, "name");
    } else if (key == "k") {
      req.k = as_size(value, "k");
    } else if (key == "options") {
      if (!value.is_object())
        throw ModelError("serve wire: field 'options' must be an object");
      for (const auto& [opt, v] : value.members) {
        bool known = false;
        for_each_option_field([&](const auto& field) {
          if (opt != field.wire) return;
          known = true;
          auto& member = req.options.*field.member;
          member = option_from<std::remove_reference_t<decltype(member)>>(
              v, "options." + opt);
        });
        if (!known)
          throw ModelError("serve wire: unknown option '" + opt + "'");
      }
    } else {
      throw ModelError("serve wire: unknown request field '" + key + "'");
    }
  }
  if (!saw_cmd) throw ModelError("serve wire: request missing 'cmd'");
  return req;
}

std::string encode_response(const Response& resp) {
  Value doc = Value::object();
  doc.add("ok", Value::boolean_v(resp.ok));
  if (resp.cached) doc.add("cached", Value::boolean_v(true));
  doc.add("exit", Value::number_u64(
                      static_cast<std::uint64_t>(resp.exit_code)));
  if (!resp.output.empty()) doc.add("output", Value::string(resp.output));
  if (!resp.error.empty()) doc.add("error", Value::string(resp.error));
  if (resp.has_stats) {
    Value stats = Value::object();
    stats.add("requests", Value::number_u64(resp.stats.requests));
    stats.add("cache_hits", Value::number_u64(resp.stats.cache_hits));
    stats.add("cache_misses", Value::number_u64(resp.stats.cache_misses));
    stats.add("cache_evictions",
              Value::number_u64(resp.stats.cache_evictions));
    stats.add("cache_entries", Value::number_u64(resp.stats.cache_entries));
    stats.add("cache_capacity", Value::number_u64(resp.stats.cache_capacity));
    doc.add("stats", std::move(stats));
  }
  return obs::json::dump(doc);
}

Response decode_response(const std::string& line) {
  Value doc;
  try {
    doc = obs::json::parse(line);
  } catch (const obs::json::ParseError& e) {
    throw ModelError(std::string("serve wire: malformed response JSON: ") +
                     e.what());
  }
  if (!doc.is_object())
    throw ModelError("serve wire: response must be a JSON object");

  Response resp;
  bool saw_ok = false;
  for (const auto& [key, value] : doc.members) {
    if (key == "ok") {
      resp.ok = as_bool(value, "ok");
      saw_ok = true;
    } else if (key == "cached") {
      resp.cached = as_bool(value, "cached");
    } else if (key == "exit") {
      resp.exit_code = static_cast<int>(as_size(value, "exit"));
    } else if (key == "output") {
      resp.output = as_string(value, "output");
    } else if (key == "error") {
      resp.error = as_string(value, "error");
    } else if (key == "stats") {
      if (!value.is_object())
        throw ModelError("serve wire: field 'stats' must be an object");
      resp.has_stats = true;
      for (const auto& [stat, v] : value.members) {
        const std::uint64_t n = as_size(v, "stats member");
        if (stat == "requests")
          resp.stats.requests = n;
        else if (stat == "cache_hits")
          resp.stats.cache_hits = n;
        else if (stat == "cache_misses")
          resp.stats.cache_misses = n;
        else if (stat == "cache_evictions")
          resp.stats.cache_evictions = n;
        else if (stat == "cache_entries")
          resp.stats.cache_entries = n;
        else if (stat == "cache_capacity")
          resp.stats.cache_capacity = n;
        // Unknown stats members are forward-compatible: ignored.
      }
    } else {
      throw ModelError("serve wire: unknown response field '" + key + "'");
    }
  }
  if (!saw_ok) throw ModelError("serve wire: response missing 'ok'");
  return resp;
}

}  // namespace ringstab::serve
