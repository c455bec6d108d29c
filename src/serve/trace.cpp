#include "serve/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace smtu::serve {
namespace {

constexpr std::string_view kSchema = "smtu-trace-v1";

// Cumulative Zipf table over `count` popularity ranks: rank r gets weight
// 1/(r+1)^skew. Popularity is detached from matrix index by a seeded
// permutation (otherwise "popular" would always mean "lowest locality").
struct ZipfSampler {
  std::vector<double> cumulative;
  std::vector<u32> rank_to_matrix;

  ZipfSampler(u32 count, double skew, Rng& rng) {
    cumulative.reserve(count);
    double total = 0.0;
    for (u32 rank = 0; rank < count; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), skew);
      cumulative.push_back(total);
    }
    for (double& value : cumulative) value /= total;
    rank_to_matrix.resize(count);
    for (u32 i = 0; i < count; ++i) rank_to_matrix[i] = i;
    rng.shuffle(rank_to_matrix);
  }

  u32 sample(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
    const usize rank = std::min<usize>(static_cast<usize>(it - cumulative.begin()),
                                       cumulative.size() - 1);
    return rank_to_matrix[rank];
  }
};

// One inter-arrival gap in virtual microseconds, >= 1 so arrivals strictly
// advance within a burst only when the rate allows it (equal times are fine).
u64 next_gap_us(const ArrivalSpec& arrival, u64 now_us, Rng& rng) {
  const double mean_gap_us = 1e6 / arrival.rate_rps;
  double gap;
  if (arrival.mode == "bursty") {
    const u64 period = arrival.burst_on_us + arrival.burst_off_us;
    const bool on = period == 0 || (now_us % period) < arrival.burst_on_us;
    const double rate_scale = on ? arrival.burst_multiplier : 0.2;
    gap = -std::log(1.0 - rng.uniform()) * mean_gap_us / rate_scale;
  } else if (arrival.mode == "heavytail") {
    // Pareto with tail index alpha, scaled so the (uncapped) mean matches
    // the requested rate; the 100x cap keeps a single draw from stalling
    // the whole trace.
    const double alpha = arrival.heavytail_alpha;
    SMTU_CHECK_MSG(alpha > 1.0, "heavytail_alpha must be > 1 for a finite mean");
    const double scale = mean_gap_us * (alpha - 1.0) / alpha;
    gap = scale * std::pow(1.0 - rng.uniform(), -1.0 / alpha);
    gap = std::min(gap, 100.0 * mean_gap_us);
  } else {
    SMTU_CHECK_MSG(arrival.mode == "poisson",
                   "unknown arrival mode '" + arrival.mode + "'");
    gap = -std::log(1.0 - rng.uniform()) * mean_gap_us;
  }
  return std::max<u64>(1, static_cast<u64>(std::llround(gap)));
}

// The rule every unsigned trace field follows. An integral lexeme must fit T
// exactly. Any other number must be a non-negative integer in T's range as
// a double, so `2.0` reads as 2; past 2^64 the conversion would be
// undefined behaviour.
template <typename T>
std::optional<T> uint_of(const JsonNumber& number) {
  constexpr u64 kMax = std::numeric_limits<T>::max();
  if (number.integral) {
    if (number.negative || number.integer > kMax) return std::nullopt;
    return static_cast<T>(number.integer);
  }
  const double value = number.value;
  if (value >= 0.0 && value < 0x1p64 && value == std::floor(value) &&
      static_cast<u64>(value) <= kMax) {
    return static_cast<T>(value);
  }
  return std::nullopt;
}

std::string uint_error(std::string_view key, usize bits) {
  return format("\"%.*s\" is not an unsigned %zu-bit integer", static_cast<int>(key.size()),
                key.data(), bits);
}

// Reads the unsigned integer field `key` into `out`, which keeps its value
// when the key is absent. A present value that breaks uint_of's rule is an
// error.
template <typename T>
bool read_uint(const JsonValue& object, std::string_view key, T& out, std::string* error) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return true;
  if (value->is_number()) {
    if (const std::optional<T> number = uint_of<T>(value->as_number())) {
      out = *number;
      return true;
    }
  }
  if (error != nullptr) *error = uint_error(key, 8 * sizeof(T));
  return false;
}

// Prefixes the error read_uint left with where the field sits.
std::nullopt_t fail_in(std::string* error, const std::string& where) {
  if (error != nullptr) error->insert(0, where);
  return std::nullopt;
}

double get_double(const JsonValue& object, std::string_view key, double fallback) {
  const JsonValue* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_double() : fallback;
}

bool set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

const char* kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kHism:
      return "hism";
    case Kernel::kCrs:
      return "crs";
  }
  return "?";
}

bool kernel_from_name(std::string_view name, Kernel& kernel) {
  for (u32 i = 0; i < kKernelCount; ++i) {
    if (name == kernel_name(static_cast<Kernel>(i))) {
      kernel = static_cast<Kernel>(i);
      return true;
    }
  }
  return false;
}

vsim::MachineConfig machine_config_for(const ConfigSpec& spec) {
  vsim::MachineConfig config;
  config.section = spec.section;
  config.stm.section = spec.section;
  config.stm.bandwidth = spec.stm_bandwidth;
  config.stm.lines = spec.stm_lines;
  return config;
}

Trace generate_trace(const GeneratorOptions& options) {
  SMTU_CHECK_MSG(options.requests > 0, "trace generator needs at least one request");
  const auto set = suite::build_dsab_set(options.set, options.suite);
  SMTU_CHECK_MSG(!set.empty(), "suite set '" + options.set + "' is empty");

  Trace trace;
  trace.seed = options.seed;
  trace.set = options.set;
  trace.suite = options.suite;
  trace.arrival = options.arrival;
  trace.matrix_count = static_cast<u32>(set.size());
  // Variant 0 is the paper's default machine; variant 1 a narrower STM
  // (B=2, L=2). Distinct variants change the timing, so they exercise the
  // config part of the dedup key.
  trace.configs.push_back(ConfigSpec{});
  trace.configs.push_back(ConfigSpec{64, 2, 2});

  Rng rng(options.seed);
  const ZipfSampler popularity(trace.matrix_count, options.arrival.zipf_skew, rng);
  u64 now_us = 0;
  trace.requests.reserve(options.requests);
  for (u32 id = 0; id < options.requests; ++id) {
    // Fixed draw order per request (gap, matrix, kernel, config) keeps the
    // trace a pure function of the options.
    now_us += next_gap_us(options.arrival, now_us, rng);
    Request request;
    request.id = id;
    request.matrix = popularity.sample(rng);
    request.kernel = rng.chance(options.arrival.hism_fraction) ? Kernel::kHism : Kernel::kCrs;
    request.config = rng.chance(options.arrival.alt_config_fraction) ? 1u : 0u;
    request.arrival_us = now_us;
    trace.requests.push_back(request);
  }
  return trace;
}

void write_trace_json(JsonWriter& json, const Trace& trace) {
  json.begin_object();
  json.key("schema");
  json.value(std::string(kSchema));
  json.key("seed");
  json.value(trace.seed);
  json.key("set");
  json.value(trace.set);
  json.key("suite");
  json.begin_object();
  json.key("seed");
  json.value(trace.suite.seed);
  json.key("scale");
  json.value(trace.suite.scale);
  json.end_object();
  json.key("arrival");
  json.begin_object();
  json.key("mode");
  json.value(trace.arrival.mode);
  json.key("rate_rps");
  json.value(trace.arrival.rate_rps);
  json.key("zipf_skew");
  json.value(trace.arrival.zipf_skew);
  json.key("hism_fraction");
  json.value(trace.arrival.hism_fraction);
  json.key("alt_config_fraction");
  json.value(trace.arrival.alt_config_fraction);
  json.key("burst_on_us");
  json.value(trace.arrival.burst_on_us);
  json.key("burst_off_us");
  json.value(trace.arrival.burst_off_us);
  json.key("burst_multiplier");
  json.value(trace.arrival.burst_multiplier);
  json.key("heavytail_alpha");
  json.value(trace.arrival.heavytail_alpha);
  json.end_object();
  json.key("configs");
  json.begin_array();
  for (const ConfigSpec& spec : trace.configs) {
    json.begin_object();
    json.key("section");
    json.value(static_cast<u64>(spec.section));
    json.key("stm_bandwidth");
    json.value(static_cast<u64>(spec.stm_bandwidth));
    json.key("stm_lines");
    json.value(static_cast<u64>(spec.stm_lines));
    json.end_object();
  }
  json.end_array();
  json.key("matrices");
  json.value(static_cast<u64>(trace.matrix_count));
  json.key("requests");
  json.begin_array();
  for (const Request& request : trace.requests) {
    json.begin_object();
    json.key("id");
    json.value(static_cast<u64>(request.id));
    json.key("matrix");
    json.value(static_cast<u64>(request.matrix));
    json.key("kernel");
    json.value(kernel_name(request.kernel));
    json.key("config");
    json.value(static_cast<u64>(request.config));
    json.key("arrival_us");
    json.value(request.arrival_us);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  SMTU_CHECK_MSG(static_cast<bool>(out), "cannot open trace output " + path);
  JsonWriter json(out);
  write_trace_json(json, trace);
  out << '\n';
}

namespace {

// What reading a request object found wrong with it. The checks that need
// the whole document run after it is read: "matrices" and "configs" may
// follow the request array, and a document-level fault must still be
// reported before any request's.
enum RequestFault : u8 {
  kNotObject = 1 << 0,
  kBadId = 1 << 1,
  kBadMatrix = 1 << 2,
  kBadConfig = 1 << 3,
  kBadArrival = 1 << 4,
  kNoMatrix = 1 << 5,
  kNoConfig = 1 << 6,
  kBadKernel = 1 << 7,
};

// Reads the current member's value into `out` when it follows uint_of's
// rule and sets `bad` in `faults` when it does not. False on a grammar
// error only.
template <typename T>
bool read_uint_member(JsonReader& reader, T& out, u8& faults, u8 bad) {
  if (reader.peek() != JsonReader::Kind::kNumber) {
    faults |= bad;
    return reader.skip_value();
  }
  const std::optional<JsonNumber> number = reader.read_number();
  if (!number) return false;
  if (const std::optional<T> value = uint_of<T>(*number)) {
    out = *value;
  } else {
    faults |= bad;
  }
  return true;
}

// Reads one request object. As with JsonValue::find, the first member with
// a given key wins; later duplicates and unknown members are only
// grammar-checked.
bool read_request(JsonReader& reader, Request& request, u8& faults) {
  enum Seen : u8 { kId = 1, kMatrix = 2, kKernel = 4, kConfig = 8, kArrival = 16 };
  u8 seen = 0;
  const auto first = [&seen](Seen field) {
    const bool fresh = (seen & field) == 0;
    seen |= field;
    return fresh;
  };
  reader.begin_object();
  std::string_view key;
  while (reader.next_member(key)) {
    bool read = true;
    if (key == "id" && first(kId)) {
      read = read_uint_member(reader, request.id, faults, kBadId);
    } else if (key == "matrix" && first(kMatrix)) {
      read = read_uint_member(reader, request.matrix, faults, kBadMatrix);
    } else if (key == "config" && first(kConfig)) {
      read = read_uint_member(reader, request.config, faults, kBadConfig);
    } else if (key == "arrival_us" && first(kArrival)) {
      read = read_uint_member(reader, request.arrival_us, faults, kBadArrival);
    } else if (key == "kernel" && first(kKernel)) {
      if (reader.peek() == JsonReader::Kind::kString) {
        const std::optional<std::string_view> name = reader.read_string();
        read = name.has_value();
        if (read && !kernel_from_name(*name, request.kernel)) faults |= kBadKernel;
      } else {
        faults |= kBadKernel;
        read = reader.skip_value();
      }
    } else {
      read = reader.skip_value();
    }
    if (!read) return false;
  }
  if ((seen & kMatrix) == 0) faults |= kNoMatrix;
  if ((seen & kConfig) == 0) faults |= kNoConfig;
  if ((seen & kKernel) == 0) faults |= kBadKernel;
  return reader.ok();
}

// Streams the request array into `requests`, with one fault byte per
// request in `faults`. False on a grammar error only.
bool read_requests(JsonReader& reader, std::vector<Request>& requests,
                   std::vector<u8>& faults) {
  reader.begin_array();
  while (reader.next_item()) {
    Request request;
    request.id = static_cast<u32>(requests.size());
    u8 fault = 0;
    if (reader.peek() == JsonReader::Kind::kObject) {
      if (!read_request(reader, request, fault)) return false;
    } else {
      fault = kNotObject;
      if (!reader.skip_value()) return false;
    }
    requests.push_back(request);
    faults.push_back(fault);
  }
  return reader.ok();
}

// The checks of one request read by read_requests, in the order a walk over
// its members would make them.
bool check_request(const Trace& trace, const Request& request, u8 fault, u64 previous_arrival,
                   std::string* error) {
  if ((fault & kNotObject) != 0) return set_error(error, "request is not an object");
  if ((fault & kBadId) != 0) return set_error(error, "request " + uint_error("id", 32));
  const auto fail = [&](const std::string& what) {
    return set_error(error, format("request %u: ", request.id) + what);
  };
  if ((fault & kBadMatrix) != 0) return fail(uint_error("matrix", 32));
  if ((fault & kBadConfig) != 0) return fail(uint_error("config", 32));
  if ((fault & kBadArrival) != 0) return fail(uint_error("arrival_us", 64));
  if ((fault & kNoMatrix) != 0 || request.matrix >= trace.matrix_count) {
    return fail("matrix index out of range");
  }
  if ((fault & kBadKernel) != 0) return fail("unknown kernel");
  if ((fault & kNoConfig) != 0 || request.config >= trace.configs.size()) {
    return fail("config index out of range");
  }
  if (request.arrival_us < previous_arrival) return fail("arrival_us decreases");
  return true;
}

}  // namespace

std::optional<Trace> parse_trace(std::string_view text, std::string* error) {
  // One pass over the text. Every member but "requests" is small and lands
  // in `document`; the request array streams into `trace.requests` without
  // a DOM. Grammar errors anywhere come first, as from parse_json.
  JsonReader reader(text);
  Trace trace;
  std::vector<u8> faults;
  std::vector<JsonValue::Member> header;
  const bool is_object = reader.peek() == JsonReader::Kind::kObject;
  bool requests_seen = false;
  bool requests_array = false;
  if (is_object) {
    reader.begin_object();
    std::string_view key;
    while (reader.next_member(key)) {
      if (key != "requests") {
        std::string name(key);  // the key's view ends at the next read
        std::optional<JsonValue> value = read_json_value(reader);
        if (!value) break;
        header.emplace_back(std::move(name), std::move(*value));
      } else if (requests_seen) {
        reader.skip_value();
      } else {
        requests_seen = true;
        requests_array = reader.peek() == JsonReader::Kind::kArray;
        if (requests_array) {
          read_requests(reader, trace.requests, faults);
        } else {
          reader.skip_value();
        }
      }
    }
  } else {
    reader.skip_value();
  }
  if (!reader.finish()) {
    set_error(error, reader.error());
    return std::nullopt;
  }
  if (!is_object) {
    set_error(error, "trace is not a JSON object");
    return std::nullopt;
  }

  const JsonValue document = JsonValue::make_object(std::move(header));
  const JsonValue* schema = document.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->as_string() != kSchema) {
    set_error(error, "missing or wrong schema tag (expected \"smtu-trace-v1\")");
    return std::nullopt;
  }
  if (!read_uint(document, "seed", trace.seed, error)) return std::nullopt;
  const JsonValue* set = document.find("set");
  if (set == nullptr || !set->is_string()) {
    set_error(error, "missing \"set\" name");
    return std::nullopt;
  }
  trace.set = set->as_string();
  if (const JsonValue* suite = document.find("suite"); suite != nullptr && suite->is_object()) {
    if (!read_uint(*suite, "seed", trace.suite.seed, error)) return fail_in(error, "suite ");
    trace.suite.scale = get_double(*suite, "scale", trace.suite.scale);
  }
  if (const JsonValue* arrival = document.find("arrival");
      arrival != nullptr && arrival->is_object()) {
    if (const JsonValue* mode = arrival->find("mode"); mode != nullptr && mode->is_string()) {
      trace.arrival.mode = mode->as_string();
    }
    trace.arrival.rate_rps = get_double(*arrival, "rate_rps", trace.arrival.rate_rps);
    trace.arrival.zipf_skew = get_double(*arrival, "zipf_skew", trace.arrival.zipf_skew);
    trace.arrival.hism_fraction =
        get_double(*arrival, "hism_fraction", trace.arrival.hism_fraction);
    trace.arrival.alt_config_fraction =
        get_double(*arrival, "alt_config_fraction", trace.arrival.alt_config_fraction);
    if (!read_uint(*arrival, "burst_on_us", trace.arrival.burst_on_us, error) ||
        !read_uint(*arrival, "burst_off_us", trace.arrival.burst_off_us, error)) {
      return fail_in(error, "arrival ");
    }
    trace.arrival.burst_multiplier =
        get_double(*arrival, "burst_multiplier", trace.arrival.burst_multiplier);
    trace.arrival.heavytail_alpha =
        get_double(*arrival, "heavytail_alpha", trace.arrival.heavytail_alpha);
  }

  const JsonValue* configs = document.find("configs");
  if (configs == nullptr || !configs->is_array() || configs->size() == 0) {
    set_error(error, "missing \"configs\" variant table");
    return std::nullopt;
  }
  for (const JsonValue& item : configs->items()) {
    if (!item.is_object()) {
      set_error(error, "config variant is not an object");
      return std::nullopt;
    }
    ConfigSpec spec;
    if (!read_uint(item, "section", spec.section, error) ||
        !read_uint(item, "stm_bandwidth", spec.stm_bandwidth, error) ||
        !read_uint(item, "stm_lines", spec.stm_lines, error)) {
      return fail_in(error, "config variant ");
    }
    trace.configs.push_back(spec);
  }
  if (!read_uint(document, "matrices", trace.matrix_count, error)) return std::nullopt;
  if (trace.matrix_count == 0) {
    set_error(error, "missing or zero \"matrices\" count");
    return std::nullopt;
  }

  if (!requests_array) {
    set_error(error, "missing \"requests\" array");
    return std::nullopt;
  }
  u64 previous_arrival = 0;
  for (usize i = 0; i < trace.requests.size(); ++i) {
    if (!check_request(trace, trace.requests[i], faults[i], previous_arrival, error)) {
      return std::nullopt;
    }
    previous_arrival = trace.requests[i].arrival_us;
  }
  if (trace.requests.empty()) {
    set_error(error, "trace has no requests");
    return std::nullopt;
  }
  return trace;
}

Trace load_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  SMTU_CHECK_MSG(static_cast<bool>(in), "cannot open trace " + path);
  const std::streamoff size = in.tellg();
  SMTU_CHECK_MSG(size >= 0, "cannot size trace " + path);
  std::string text(static_cast<usize>(size), '\0');
  in.seekg(0);
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  SMTU_CHECK_MSG(static_cast<bool>(in), "cannot read trace " + path);
  std::string error;
  std::optional<Trace> trace = parse_trace(text, &error);
  SMTU_CHECK_MSG(trace.has_value(), "trace " + path + ": " + error);
  return std::move(*trace);
}

}  // namespace smtu::serve
