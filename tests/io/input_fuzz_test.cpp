// Seeded mutation fuzzer for the two parsers that take outside input: the
// JSON reader (util::json_parse) and the job wire format
// (io::job_spec_from_json). The corpus is the repository's own fixtures —
// the model files, the Monte Carlo golden file and serialized job specs —
// and every mutant is derived from a fixed util::Rng seed, so a failure
// reproduces exactly from its iteration number.
//
// Contract: every input either parses or throws a std::exception-derived
// error; nothing else may escape, and nothing may crash (the ASan+UBSan
// build runs this target too). Whatever parses must also survive a
// serialize/re-parse round trip unchanged, so a document the daemon accepts
// can always be spooled and replayed.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "io/serialize.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace clrearly {
namespace {

constexpr std::size_t kIterations = 20000;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A spec with every section filled in, serialized as the daemon spools it.
std::string full_job_spec_json() {
  io::JobSpec spec;
  spec.name = "fuzz";
  spec.flow = "kresilient";
  spec.seed = 7;
  spec.scenario = {"bench", 2.5, 1.0};
  spec.ga.population_size = 8;
  spec.ga.generations = 2;
  spec.objectives.mttf = true;
  spec.spec.min_functional_rel = 0.9;
  spec.tdse_objectives = core::TdseObjectives::table4_row(3);
  spec.resilience.max_failures = 1;
  spec.resilience.spare_pes = {3};
  spec.application = io::resolve_application("sobel");
  spec.architecture = io::resolve_architecture("default");
  spec.architecture.set_interconnect({0.5, 0.1});
  return util::json_serialize(io::to_json(spec));
}

std::vector<std::string> json_corpus() {
  const std::string models = CLREARLY_MODELS_DIR;
  return {slurp(models + "/sobel.json"), slurp(models + "/mjpeg.json"),
          slurp(models + "/paper_platform.json"),
          slurp(std::string(CLREARLY_SIM_DATA_DIR) + "/parent_sim_golden.json"),
          full_job_spec_json()};
}

std::vector<std::string> job_spec_corpus() {
  return {full_job_spec_json(),
          R"({"format_version": 1, "flow": "fcclr", "seed": 3,
              "application": "synthetic:12", "architecture": "default",
              "ga": {"population_size": 6, "generations": 1}})",
          R"({"format_version": 1, "flow": "proposed",
              "application": "mjpeg", "architecture": "default"})"};
}

/// Fragments that steer mutants toward the parser's edge cases.
const std::vector<std::string>& dictionary() {
  static const std::vector<std::string> tokens{
      "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u0000", "\\ud800",
      "\\uDFFF", "null", "true", "false", "-0", "1e999", "-1e-999", "1e308",
      "18446744073709551616", "-1", "0.5", "NaN", "\"format_version\"",
      "\"application\"", "\"synthetic:70001\"", "\xff", "\xc3\x28"};
  return tokens;
}

/// One mutant: 1-4 rounds of byte flips, byte overwrites, truncation,
/// splicing with another corpus entry, dictionary insertion and deep
/// nesting around a random span.
std::string mutate(const std::vector<std::string>& corpus, util::Rng& rng) {
  std::string s = corpus[rng.index(corpus.size())];
  const std::size_t rounds = 1 + rng.index(4);
  for (std::size_t round = 0; round < rounds; ++round) {
    switch (rng.index(6)) {
      case 0:  // flip one bit
        if (!s.empty()) {
          s[rng.index(s.size())] ^= static_cast<char>(1u << rng.index(8));
        }
        break;
      case 1:  // overwrite one byte
        if (!s.empty()) {
          s[rng.index(s.size())] = static_cast<char>(rng.index(256));
        }
        break;
      case 2:  // truncate
        s.resize(rng.index(s.size() + 1));
        break;
      case 3: {  // splice: a prefix of this mutant, a suffix of another entry
        const std::string& other = corpus[rng.index(corpus.size())];
        s = s.substr(0, rng.index(s.size() + 1)) +
            other.substr(rng.index(other.size() + 1));
        break;
      }
      case 4: {  // insert a dictionary token
        const auto& tokens = dictionary();
        s.insert(rng.index(s.size() + 1), tokens[rng.index(tokens.size())]);
        break;
      }
      default: {  // nest a random span up to twice the depth cap
        const std::size_t depth = 1 + rng.index(2 * util::kJsonMaxDepth);
        const std::size_t begin = rng.index(s.size() + 1);
        const std::size_t end = begin + rng.index(s.size() - begin + 1);
        const bool arrays = rng.index(2) == 0;
        std::string open;
        std::string close;
        for (std::size_t d = 0; d < depth; ++d) {
          open += arrays ? "[" : "{\"k\":";
          close += arrays ? "]" : "}";
        }
        s = s.substr(0, begin) + open + s.substr(begin, end - begin) + close +
            s.substr(end);
        break;
      }
    }
  }
  return s;
}

/// Every node of `value`, parents before children.
void collect_nodes(util::JsonValue& value, std::vector<util::JsonValue*>& out) {
  out.push_back(&value);
  if (value.is_array()) {
    for (util::JsonValue& child : value.as_array()) collect_nodes(child, out);
  } else if (value.is_object()) {
    for (auto& [key, child] : value.as_object()) collect_nodes(child, out);
  }
}

/// Well-formed values at the edges of what the wire format's fields accept.
const std::vector<util::JsonValue>& edge_values() {
  static const std::vector<util::JsonValue> values{
      util::JsonValue(nullptr), true, -1.0, 0.0, 0.5, 1.0, 1e308, -1e308,
      4.9e-324, 4294967296.0, 9007199254740993.0, 18446744073709551616.0,
      "", "synthetic:300", "sobel", "default", "kresilient",
      util::JsonArray{}, util::JsonObject{}};
  return values;
}

/// A structurally valid mutant: 1-3 nodes of a parsed corpus document are
/// replaced by an edge value, or an object member is dropped. This reaches
/// the field checks behind the JSON syntax, which byte mutants rarely do.
util::JsonValue mutate_values(const std::vector<util::JsonValue>& corpus,
                              util::Rng& rng) {
  util::JsonValue doc = corpus[rng.index(corpus.size())];
  const std::size_t rounds = 1 + rng.index(3);
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<util::JsonValue*> nodes;
    collect_nodes(doc, nodes);
    util::JsonValue& node = *nodes[rng.index(nodes.size())];
    if (node.is_object() && !node.as_object().empty() && rng.index(4) == 0) {
      util::JsonObject& object = node.as_object();
      auto victim = object.begin();
      std::advance(victim, rng.index(object.size()));
      object.erase(victim);
    } else {
      node = edge_values()[rng.index(edge_values().size())];
    }
  }
  return doc;
}

/// Parse `json` as a job spec; an accepted spec must spool and replay to the
/// same canonical text. Returns whether it was accepted.
bool accept_job_spec(const util::JsonValue& json, std::size_t iteration) {
  try {
    const io::JobSpec spec = io::job_spec_from_json(json);
    const std::string text = util::json_serialize(io::to_json(spec));
    const io::JobSpec back = io::job_spec_from_json(util::json_parse(text));
    EXPECT_EQ(util::json_serialize(io::to_json(back)), text)
        << "iteration " << iteration;
    return true;
  } catch (const std::exception&) {
    return false;  // rejected with a typed error: the contract
  } catch (...) {
    ADD_FAILURE() << "iteration " << iteration << ": non-std exception";
    return false;
  }
}

TEST(InputFuzzTest, MutatedJsonParsesOrThrows) {
  const std::vector<std::string> corpus = json_corpus();
  util::Rng rng(0x4A534F4E);
  std::size_t parsed = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string input = mutate(corpus, rng);
    try {
      const util::JsonValue value = util::json_parse(input);
      ++parsed;
      const std::string text = util::json_serialize(value);
      EXPECT_EQ(util::json_serialize(util::json_parse(text)), text)
          << "iteration " << i;
    } catch (const std::exception&) {
      // Rejected with a typed error: the contract.
    } catch (...) {
      ADD_FAILURE() << "iteration " << i << ": non-std exception";
    }
  }
  // The mutants must not all be rejected, or the round trip is untested.
  EXPECT_GT(parsed, kIterations / 20);
}

TEST(InputFuzzTest, MutatedJobSpecsParseOrThrow) {
  const std::vector<std::string> corpus = job_spec_corpus();
  util::Rng rng(0x4A4F4253);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string input = mutate(corpus, rng);
    util::JsonValue json;
    try {
      json = util::json_parse(input);
    } catch (const std::exception&) {
      continue;
    }
    if (accept_job_spec(json, i)) ++accepted;
  }
  EXPECT_GT(accepted, 0u);
}

TEST(InputFuzzTest, MutatedJobSpecValuesParseOrThrow) {
  std::vector<util::JsonValue> corpus;
  for (const std::string& text : job_spec_corpus()) {
    corpus.push_back(util::json_parse(text));
  }
  util::Rng rng(0x56414C53);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    if (accept_job_spec(mutate_values(corpus, rng), i)) ++accepted;
  }
  EXPECT_GT(accepted, kIterations / 100);
}

}  // namespace
}  // namespace clrearly
