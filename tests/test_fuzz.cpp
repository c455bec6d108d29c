// Seeded mutation fuzzing of every parser of outside input: JSON (parse_json
// and the JsonReader grammar under it), the smtu-trace-v1 reader, Matrix
// Market and the vsim assembler. The toolchain has no libFuzzer, so each
// target is a fixed-seed, fixed-count mutation loop run as an ordinary test;
// the sanitizer builds run it with the rest of the suite.
//
// Beyond "never crash, only the documented failure", the trace target has an
// oracle: testing::parse_trace_dom, a walk over the parsed DOM. On every
// mutant the streaming serve::parse_trace must give the same verdict, the
// same error text and, when it accepts, the same Trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include "formats/matrix_market.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "serve/trace.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "testing.hpp"
#include "vsim/assembler.hpp"

namespace smtu {
namespace {

constexpr u64 kFuzzSeed = 0xF022ED5EEDull;

usize pick(Rng& rng, usize count) { return static_cast<usize>(rng.below(count)); }

// One to three byte-level mutations: flip a bit, insert a byte (often one
// the grammar cares about), delete a short run, or truncate.
std::string mutate_bytes(std::string text, Rng& rng) {
  static constexpr std::string_view kSignificant = "{}[]\",:\\-+.eE0123456789tfnu \n\x01";
  const usize mutations = 1 + pick(rng, 3);
  for (usize m = 0; m < mutations; ++m) {
    const usize size = text.size();
    switch (pick(rng, 4)) {
      case 0:
        if (size > 0) text[pick(rng, size)] ^= static_cast<char>(1u << pick(rng, 8));
        break;
      case 1: {
        const char byte = rng.chance(0.5) ? kSignificant[pick(rng, kSignificant.size())]
                                          : static_cast<char>(pick(rng, 256));
        text.insert(pick(rng, size + 1), 1, byte);
        break;
      }
      case 2:
        if (size > 0) {
          const usize at = pick(rng, size);
          text.erase(at, 1 + pick(rng, std::min<usize>(8, size - at)));
        }
        break;
      default:
        text.resize(pick(rng, size + 1));
        break;
    }
  }
  return text;
}

// ---- JSON ------------------------------------------------------------------

void write_dom(JsonWriter& json, const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull: json.null(); break;
    case JsonValue::Kind::kBool: json.value(value.as_bool()); break;
    case JsonValue::Kind::kNumber: {
      const JsonNumber& number = value.as_number();
      if (!number.integral) {
        json.value(number.value);
      } else if (number.negative) {
        json.value(static_cast<i64>(number.integer));
      } else {
        json.value(number.integer);
      }
      break;
    }
    case JsonValue::Kind::kString: json.value(value.as_string()); break;
    case JsonValue::Kind::kArray:
      json.begin_array();
      for (const JsonValue& item : value.items()) write_dom(json, item);
      json.end_array();
      break;
    case JsonValue::Kind::kObject:
      json.begin_object();
      for (const auto& [key, member] : value.members()) {
        json.key(key);
        write_dom(json, member);
      }
      json.end_object();
      break;
  }
}

TEST(Fuzz, JsonDomAndSkippingReaderAgreeOnEveryMutant) {
  const std::vector<std::string> seeds = {
      R"({"a":[1,-0,2.5e-3,1E+2,true,false,null,"é😀\n\"\\"],"b":{"c":{}},"d":[]})",
      R"([18446744073709551615,-9223372036854775808,9007199254740993,1e300,-1e-400])",
      R"({"schema":"smtu-trace-v1","requests":[{"id":0,"kernel":"hism"}]})",
  };
  Rng rng(kFuzzSeed);
  usize accepted = 0;
  constexpr usize kIterations = 4000;
  for (usize i = 0; i < kIterations; ++i) {
    const std::string text = mutate_bytes(seeds[i % seeds.size()], rng);
    std::string dom_error;
    const std::optional<JsonValue> dom = parse_json(text, &dom_error);
    JsonReader reader(text);
    const bool skipped = reader.skip_value() && reader.finish();
    ASSERT_EQ(dom.has_value(), skipped) << text;
    ASSERT_EQ(dom_error, reader.error()) << text;
    if (!dom) continue;
    ++accepted;
    // What the writer renders from an accepted document parses again, and
    // every integral lexeme survives exactly.
    std::ostringstream out;
    {
      JsonWriter json(out);
      write_dom(json, *dom);
    }
    std::string reparse_error;
    ASSERT_TRUE(parse_json(out.str(), &reparse_error).has_value())
        << text << " -> " << out.str() << ": " << reparse_error;
  }
  // Both verdicts are common, so the loop exercises the grammar's error
  // paths and the accepting path alike.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_LT(accepted, kIterations - kIterations / 20);
}

// ---- smtu-trace-v1 ------------------------------------------------------------

// A document as members whose values are JSON text, so mutants can reorder,
// duplicate or drop members and plant any lexeme in a value. The "configs"
// and "requests" members render their lists below.
struct Member {
  std::string key;
  std::string value;
};
using Object = std::vector<Member>;

std::string render(const Object& object) {
  std::string text = "{";
  for (const Member& member : object) {
    if (text.size() > 1) text += ',';
    text += '"' + member.key + "\":" + member.value;
  }
  return text + '}';
}

struct TraceDoc {
  Object top;
  std::vector<Object> configs;
  std::vector<std::string> requests;  // rendered request values

  std::string text() const {
    std::string configs_text = "[";
    for (const Object& config : configs) {
      if (configs_text.size() > 1) configs_text += ',';
      configs_text += render(config);
    }
    configs_text += ']';
    std::string requests_text = "[";
    for (const std::string& request : requests) {
      if (requests_text.size() > 1) requests_text += ',';
      requests_text += request;
    }
    requests_text += ']';
    Object rendered = top;
    for (Member& member : rendered) {
      if (member.value == "CONFIGS") member.value = configs_text;
      if (member.value == "REQUESTS") member.value = requests_text;
    }
    return render(rendered);
  }
};

Object request_object(u32 id, u32 matrix, const char* kernel, u32 config, u64 arrival_us) {
  return {{"id", std::to_string(id)},
          {"matrix", std::to_string(matrix)},
          {"kernel", std::string("\"") + kernel + '"'},
          {"config", std::to_string(config)},
          {"arrival_us", std::to_string(arrival_us)}};
}

TraceDoc base_trace() {
  TraceDoc doc;
  doc.top = {
      {"schema", "\"smtu-trace-v1\""},
      {"seed", "9007199254740993"},
      {"set", "\"locality\""},
      {"suite", render({{"seed", "3585922475"}, {"scale", "0.05"}})},
      {"arrival", render({{"mode", "\"poisson\""},
                          {"rate_rps", "20000"},
                          {"zipf_skew", "1"},
                          {"hism_fraction", "0.75"},
                          {"alt_config_fraction", "0.1"},
                          {"burst_on_us", "2000"},
                          {"burst_off_us", "8000"},
                          {"burst_multiplier", "4"},
                          {"heavytail_alpha", "1.5"}})},
      {"configs", "CONFIGS"},
      {"matrices", "4"},
      {"requests", "REQUESTS"},
  };
  doc.configs = {{{"section", "64"}, {"stm_bandwidth", "4"}, {"stm_lines", "4"}},
                 {{"section", "64"}, {"stm_bandwidth", "2"}, {"stm_lines", "2"}}};
  const char* kernels[] = {"hism", "crs"};
  for (u32 id = 0; id < 6; ++id) {
    doc.requests.push_back(
        render(request_object(id, id % 4, kernels[id % 2], id % 3 == 2 ? 1 : 0, 10 * id)));
  }
  return doc;
}

// Values planted by the mutator: integers at and past every field width,
// non-integral and huge numbers, and every other kind.
constexpr const char* kHostileValues[] = {
    "0", "-0", "1", "2.0", "2.5", "-1", "-3", "1e2", "1e300", "-1e300", "1e-400",
    "4294967295", "4294967296", "9007199254740993", "18446744073709551615",
    "18446744073709551616", "1.8446744073709552e19", "null", "true", "\"x\"", "[]", "{}",
    "\"hism\"", "\"crs\"", "\"h\\u0069sm\"", "\"smtu-trace-v1\"", "[{}]", "[1]"};

// A key rewritten with a \u escape decodes to the same member.
std::string escape_first_char(const std::string& key) {
  if (key.empty()) return key;
  return format("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(key[0]))) +
         key.substr(1);
}

void mutate_object(Object& object, Rng& rng) {
  if (object.empty()) {
    object.push_back({"id", "0"});
    return;
  }
  const usize at = pick(rng, object.size());
  switch (pick(rng, 5)) {
    case 0:  // duplicate a member later in the object; the first one wins
      object.insert(object.begin() + static_cast<std::ptrdiff_t>(at + 1 + pick(rng, object.size() - at)),
                    {object[at].key,
                     rng.chance(0.5) ? object[at].value
                                     : kHostileValues[pick(rng, std::size(kHostileValues))]});
      break;
    case 1: object.erase(object.begin() + static_cast<std::ptrdiff_t>(at)); break;
    case 2: object[at].value = kHostileValues[pick(rng, std::size(kHostileValues))]; break;
    case 3: object[at].key = escape_first_char(object[at].key); break;
    default: {
      std::vector<Member> shuffled = object;
      rng.shuffle(shuffled);
      object = shuffled;
      break;
    }
  }
}

// Structural mutations of a trace document, then sometimes bytes on top.
std::string mutate_trace(Rng& rng) {
  TraceDoc doc = base_trace();
  const usize mutations = 1 + pick(rng, 3);
  for (usize m = 0; m < mutations; ++m) {
    switch (pick(rng, 7)) {
      case 0: {  // the request array first, ahead of "configs" and "matrices"
        const auto requests = std::find_if(doc.top.begin(), doc.top.end(),
                                           [](const Member& member) {
                                             return member.key == "requests";
                                           });
        if (requests != doc.top.end()) std::rotate(doc.top.begin(), requests, requests + 1);
        break;
      }
      case 1: mutate_object(doc.top, rng); break;
      case 2: mutate_object(doc.configs[pick(rng, doc.configs.size())], rng); break;
      case 3: {  // one request's members
        std::string& request = doc.requests[pick(rng, doc.requests.size())];
        Object object = request_object(7, 3, "crs", 1, 100);
        mutate_object(object, rng);
        request = render(object);
        break;
      }
      case 4:  // a request that is not an object, or none at all
        if (rng.chance(0.5)) {
          doc.requests[pick(rng, doc.requests.size())] =
              kHostileValues[pick(rng, std::size(kHostileValues))];
        } else if (!doc.requests.empty()) {
          doc.requests.pop_back();
        }
        break;
      case 5:  // arrivals out of order
        if (doc.requests.size() > 1) std::swap(doc.requests.front(), doc.requests.back());
        break;
      default:  // the same key twice at the top, the second a whole new value
        doc.top.push_back({rng.chance(0.5) ? "requests" : "configs",
                           rng.chance(0.5) ? "[]" : "[{\"matrix\":0}]"});
        break;
    }
    if (doc.configs.empty()) doc.configs.push_back({});
    if (doc.requests.empty() && rng.chance(0.5)) doc.requests.push_back("{}");
  }
  std::string text = doc.text();
  if (rng.chance(0.25)) text = mutate_bytes(std::move(text), rng);
  return text;
}

::testing::AssertionResult same_trace(const serve::Trace& a, const serve::Trace& b) {
  const auto& x = a.arrival;
  const auto& y = b.arrival;
  const bool header =
      a.seed == b.seed && a.set == b.set && a.suite.seed == b.suite.seed &&
      std::bit_cast<u64>(a.suite.scale) == std::bit_cast<u64>(b.suite.scale) &&
      x.mode == y.mode && std::bit_cast<u64>(x.rate_rps) == std::bit_cast<u64>(y.rate_rps) &&
      std::bit_cast<u64>(x.zipf_skew) == std::bit_cast<u64>(y.zipf_skew) &&
      std::bit_cast<u64>(x.hism_fraction) == std::bit_cast<u64>(y.hism_fraction) &&
      std::bit_cast<u64>(x.alt_config_fraction) == std::bit_cast<u64>(y.alt_config_fraction) &&
      x.burst_on_us == y.burst_on_us && x.burst_off_us == y.burst_off_us &&
      std::bit_cast<u64>(x.burst_multiplier) == std::bit_cast<u64>(y.burst_multiplier) &&
      std::bit_cast<u64>(x.heavytail_alpha) == std::bit_cast<u64>(y.heavytail_alpha) &&
      a.configs == b.configs && a.matrix_count == b.matrix_count;
  if (!header) return ::testing::AssertionFailure() << "trace headers differ";
  if (a.requests.size() != b.requests.size()) {
    return ::testing::AssertionFailure()
           << a.requests.size() << " vs " << b.requests.size() << " requests";
  }
  for (usize i = 0; i < a.requests.size(); ++i) {
    const serve::Request& p = a.requests[i];
    const serve::Request& q = b.requests[i];
    if (p.id != q.id || p.matrix != q.matrix || p.kernel != q.kernel || p.config != q.config ||
        p.arrival_us != q.arrival_us) {
      return ::testing::AssertionFailure() << "request " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Fuzz, StreamingTraceReaderMatchesTheDomWalkOnEveryMutant) {
  {
    std::string error;
    const auto base = serve::parse_trace(base_trace().text(), &error);
    ASSERT_TRUE(base.has_value()) << error;
    EXPECT_EQ(base->seed, 9007199254740993ull);
  }
  Rng rng(kFuzzSeed + 1);
  usize accepted = 0;
  constexpr usize kIterations = 4000;
  for (usize i = 0; i < kIterations; ++i) {
    const std::string text = mutate_trace(rng);
    std::string streamed_error;
    const std::optional<serve::Trace> streamed = serve::parse_trace(text, &streamed_error);
    std::string oracle_error;
    std::optional<serve::Trace> oracle;
    if (const std::optional<JsonValue> dom = parse_json(text, &oracle_error)) {
      oracle = testing::parse_trace_dom(*dom, &oracle_error);
    }
    ASSERT_EQ(streamed.has_value(), oracle.has_value())
        << text << "\nstreamed: " << streamed_error << "\noracle: " << oracle_error;
    if (streamed) {
      ++accepted;
      ASSERT_TRUE(same_trace(*streamed, *oracle)) << text;
    } else {
      ASSERT_EQ(streamed_error, oracle_error) << text;
    }
  }
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_LT(accepted, kIterations - kIterations / 20);
}

// ---- Matrix Market and the assembler -----------------------------------------

TEST(Fuzz, MatrixMarketThrowsOnlyRuntimeError) {
  Rng rng(kFuzzSeed + 2);
  std::ostringstream written;
  write_matrix_market(written, testing::random_coo(6, 5, 9, rng));
  const std::vector<std::string> seeds = {
      written.str(),
      "%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n3 3 2\n2 1\n3 3\n",
      "%%MatrixMarket matrix array real skew-symmetric\n2 2\n1.5\n",
      "%%MatrixMarket matrix array real general\n2 2\n1\n0\n-2.5\n4e1\n",
  };
  usize accepted = 0;
  constexpr usize kIterations = 3000;
  for (usize i = 0; i < kIterations; ++i) {
    std::istringstream in(mutate_bytes(seeds[i % seeds.size()], rng));
    try {
      (void)read_matrix_market(in);
      ++accepted;
    } catch (const std::runtime_error&) {
      // the documented failure
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(Fuzz, AssemblerThrowsOnlyAssemblyError) {
  Rng rng(kFuzzSeed + 3);
  const std::vector<std::string> seeds = {kernels::hism_transpose_source(),
                                          kernels::scalar_crs_transpose_source()};
  usize accepted = 0;
  constexpr usize kIterations = 600;
  for (usize i = 0; i < kIterations; ++i) {
    try {
      (void)vsim::assemble(mutate_bytes(seeds[i % seeds.size()], rng));
      ++accepted;
    } catch (const vsim::AssemblyError&) {
      // the documented failure
    }
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace smtu
