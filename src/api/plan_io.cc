#include "api/plan_io.h"

#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "core/md_parser.h"
#include "core/rule_io.h"
#include "util/fnv.h"
#include "util/string_util.h"

namespace mdmatch::api {

namespace {

// Format history: v1 (PR 1) had no integrity protection; v2 adds a
// `checksum` line over the normalized content. v1 files still load; files
// from future versions are rejected with a clear error instead of being
// misparsed.
constexpr size_t kFormatVersion = 2;
constexpr const char kHeaderPrefix[] = "mdmatch-plan v";

/// FNV-1a 64 over the normalized plan content: every non-empty,
/// non-comment, trimmed line after the header and before `end`, excluding
/// the `checksum` line itself, joined with '\n'. Normalizing keeps the
/// checksum stable under annotation comments and whitespace edits while
/// catching any change to what the plan actually says.
uint64_t ContentChecksum(const std::string& text) {
  uint64_t hash = kFnvOffsetBasis;
  auto mix = [&hash](std::string_view piece) {
    for (unsigned char c : piece) hash = FnvMixByte(hash, c);
  };
  std::istringstream stream(text);
  std::string line;
  bool saw_header = false;
  bool first_content = true;
  while (std::getline(stream, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (!saw_header) {  // the header line is versioned, not checksummed
      saw_header = true;
      continue;
    }
    if (trimmed == "end") break;
    if (StartsWith(trimmed, "checksum ")) continue;
    if (!first_content) mix("\n");
    mix(trimmed);
    first_content = false;
  }
  return hash;
}

/// Parses a non-negative decimal field. Digits only: std::stoull alone
/// would accept a leading '-' and wrap it to a huge value.
std::optional<size_t> ParseCount(const std::string& text) {
  if (!IsDigits(text)) return std::nullopt;
  try {
    return static_cast<size_t>(std::stoull(text));
  } catch (...) {  // more digits than a size_t holds
    return std::nullopt;
  }
}

std::string ChecksumHex(uint64_t hash) {
  std::ostringstream out;
  out << std::hex << std::setfill('0') << std::setw(16) << hash;
  return out.str();
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot write " + path);
  out << text;
  return Status::OK();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Resolves a serialized operator name, re-registering the standard
/// parameterized operators ("dl@0.80", "jaro@0.85", "lev2", ...) when the
/// registry does not hold them yet. Thresholds must lie in [0, 1] and
/// counts are digits only, so no out-of-range parameter is registered.
Result<sim::SimOpId> ResolveOp(sim::SimOpRegistry* ops,
                               const std::string& name) {
  if (auto found = ops->Find(name); found.ok()) return *found;
  auto bad = [&] {
    return Status::ParseError("bad operator parameter in '" + name + "'");
  };
  auto threshold = [&](std::string_view prefix) -> Result<double> {
    double v = 0;
    try {
      v = std::stod(name.substr(prefix.size()));
    } catch (...) {
      return bad();
    }
    if (!(v >= 0 && v <= 1)) return bad();  // NaN fails both tests
    return v;
  };
  auto count = [&](std::string_view prefix) -> Result<size_t> {
    const std::optional<size_t> v = ParseCount(name.substr(prefix.size()));
    if (!v) return bad();
    return *v;
  };
  if (StartsWith(name, "dl@")) {
    auto v = threshold("dl@");
    if (!v.ok()) return v.status();
    return ops->Dl(*v);
  }
  if (StartsWith(name, "jaro@")) {
    auto v = threshold("jaro@");
    if (!v.ok()) return v.status();
    return ops->Jaro(*v);
  }
  if (StartsWith(name, "jw@")) {
    auto v = threshold("jw@");
    if (!v.ok()) return v.status();
    return ops->JaroWinkler(*v);
  }
  if (StartsWith(name, "qgram2@")) {
    auto v = threshold("qgram2@");
    if (!v.ok()) return v.status();
    return ops->QGramJaccard2(*v);
  }
  if (StartsWith(name, "lev")) {
    auto v = count("lev");
    if (!v.ok()) return v.status();
    return ops->Levenshtein(*v);
  }
  if (StartsWith(name, "prefix")) {
    auto v = count("prefix");
    if (!v.ok()) return v.status();
    return ops->PrefixEq(*v);
  }
  if (name == "soundex") return ops->SoundexEq();
  if (name == "nysiis") return ops->NysiisEq();
  return Status::NotFound("unknown similarity operator '" + name + "'");
}

std::string SerializeKeyFunction(const match::KeyFunction& key,
                                 const SchemaPair& pair) {
  std::string out;
  for (size_t i = 0; i < key.elements().size(); ++i) {
    const auto& e = key.elements()[i];
    if (i > 0) out += ";";
    out += pair.left().attribute(e.attrs.left).name;
    out += ",";
    out += pair.right().attribute(e.attrs.right).name;
    out += ",";
    out += e.soundex ? "1" : "0";
    out += ",";
    out += std::to_string(e.prefix);
  }
  return out;
}

Result<match::KeyFunction> ParseKeyFunction(const std::string& text,
                                            const SchemaPair& pair) {
  std::vector<match::KeyFunction::Element> elements;
  for (const std::string& piece : Split(text, ';')) {
    std::vector<std::string> fields = Split(piece, ',');
    if (fields.size() != 4) {
      return Status::ParseError("bad key-function element '" + piece + "'");
    }
    auto left = pair.left().Find(fields[0]);
    if (!left.ok()) return left.status();
    auto right = pair.right().Find(fields[1]);
    if (!right.ok()) return right.status();
    match::KeyFunction::Element e;
    e.attrs = AttrPair{*left, *right};
    e.soundex = fields[2] == "1";
    const std::optional<size_t> prefix = ParseCount(fields[3]);
    if (!prefix) return Status::ParseError("bad prefix in '" + piece + "'");
    e.prefix = *prefix;
    elements.push_back(e);
  }
  return match::KeyFunction(std::move(elements));
}

std::string SerializeConjuncts(const std::vector<Conjunct>& conjuncts,
                               const SchemaPair& pair,
                               const sim::SimOpRegistry& ops) {
  std::string out;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const auto& c = conjuncts[i];
    if (i > 0) out += ";";
    out += pair.left().attribute(c.attrs.left).name;
    out += ",";
    out += pair.right().attribute(c.attrs.right).name;
    out += ",";
    out += ops.Name(c.op);
  }
  return out;
}

Result<std::vector<Conjunct>> ParseConjuncts(const std::string& text,
                                             const SchemaPair& pair,
                                             sim::SimOpRegistry* ops) {
  std::vector<Conjunct> out;
  for (const std::string& piece : Split(text, ';')) {
    std::vector<std::string> fields = Split(piece, ',');
    if (fields.size() != 3) {
      return Status::ParseError("bad comparison element '" + piece + "'");
    }
    auto left = pair.left().Find(fields[0]);
    if (!left.ok()) return left.status();
    auto right = pair.right().Find(fields[1]);
    if (!right.ok()) return right.status();
    auto op = ResolveOp(ops, fields[2]);
    if (!op.ok()) return op.status();
    out.push_back(Conjunct{AttrPair{*left, *right}, *op});
  }
  return out;
}

std::string DoubleToString(double v) {
  std::ostringstream ss;
  ss.precision(17);
  ss << v;
  return ss.str();
}

Result<std::vector<double>> ParseDoubles(const std::string& text) {
  std::vector<double> out;
  std::istringstream stream(text);
  std::string token;
  while (stream >> token) {
    try {
      out.push_back(std::stod(token));
    } catch (...) {
      return Status::ParseError("bad number '" + token + "'");
    }
  }
  return out;
}

}  // namespace

std::string SerializePlan(const MatchPlan& plan) {
  const SchemaPair& pair = plan.pair();
  const sim::SimOpRegistry& ops = plan.ops();
  const PlanOptions& opt = plan.options();
  std::ostringstream out;

  out << kHeaderPrefix << kFormatVersion << "\n";
  out << "# compiled matching plan over (" << pair.left().name() << ", "
      << pair.right().name() << "); load with api::LoadPlanFromFile\n";
  out << "matcher "
      << (opt.matcher == PlanOptions::Matcher::kRuleBased ? "rule" : "fs")
      << "\n";
  out << "candidates "
      << (opt.candidates == PlanOptions::Candidates::kWindowing ? "windowing"
                                                                : "blocking")
      << "\n";
  out << "window_size " << opt.window_size << "\n";
  out << "num_rcks " << opt.num_rcks << "\n";
  out << "top_k " << opt.top_k << "\n";
  out << "key_attrs " << opt.key_attrs << "\n";
  out << "relax_theta " << DoubleToString(opt.relax_theta) << "\n";
  out << "transitive_closure " << (opt.transitive_closure ? 1 : 0) << "\n";
  // "-" marks an explicitly empty list (the default would otherwise be
  // restored on load).
  out << "soundex_domains ";
  if (opt.soundex_domains.empty()) {
    out << "-";
  } else {
    for (size_t i = 0; i < opt.soundex_domains.size(); ++i) {
      if (i > 0) out << ",";
      out << opt.soundex_domains[i];
    }
  }
  out << "\n";

  out << "# sigma (provenance: the MDs the RCKs were deduced from)\n";
  for (const auto& md : plan.sigma()) {
    out << "sigma " << md.ToString(pair, ops) << "\n";
  }

  out << "# deduced RCKs (RHS = the full target lists)\n";
  for (const auto& key : plan.rcks()) {
    out << "rck " << key.ToMd(plan.target()).ToString(pair, ops) << "\n";
  }

  for (const auto& rule : plan.rules()) {
    out << "rule " << rule.ToMd(plan.target()).ToString(pair, ops) << "\n";
  }
  for (const auto& key : plan.sort_keys()) {
    out << "sortkey " << SerializeKeyFunction(key, pair) << "\n";
  }
  if (!plan.block_key().empty()) {
    out << "blockkey " << SerializeKeyFunction(plan.block_key(), pair)
        << "\n";
  }

  if (const match::FellegiSunter* fs = plan.fs()) {
    out << "fs_vector "
        << SerializeConjuncts(fs->vector().elements(), pair, ops) << "\n";
    out << "fs_m";
    for (double v : fs->model().m) out << " " << DoubleToString(v);
    out << "\n";
    out << "fs_u";
    for (double v : fs->model().u) out << " " << DoubleToString(v);
    out << "\n";
    out << "fs_p " << DoubleToString(fs->model().p) << "\n";
    if (opt.fs_options.match_threshold.has_value()) {
      out << "fs_threshold " << DoubleToString(*opt.fs_options.match_threshold)
          << "\n";
    }
  }
  const std::string body = out.str();
  out << "checksum " << ChecksumHex(ContentChecksum(body)) << "\n";
  out << "end\n";
  return out.str();
}

uint64_t PlanFingerprint(const MatchPlan& plan) {
  return ContentChecksum(SerializePlan(plan));
}

Status SavePlanToFile(const std::string& path, const MatchPlan& plan) {
  return WriteTextFile(path, SerializePlan(plan));
}

Result<PlanPtr> DeserializePlan(const std::string& text,
                                const SchemaPair& pair,
                                const ComparableLists& target,
                                sim::SimOpRegistry* ops) {
  if (ops == nullptr) {
    return Status::InvalidArgument("DeserializePlan requires a registry");
  }

  PlanOptions options;
  MdSet sigma;
  std::vector<RelativeKey> rcks;
  std::vector<match::MatchRule> rules;
  std::vector<match::KeyFunction> sort_keys;
  std::optional<match::KeyFunction> block_key;
  std::optional<match::ComparisonVector> fs_vector;
  match::FsModel fs_model;
  bool have_fs_model = false;
  bool have_fs_p = false;
  bool saw_header = false;
  size_t version = 0;
  std::optional<std::string> declared_checksum;

  // The MD parser requires every named operator to be registered already,
  // so pre-register the standard parameterized operators appearing as
  // "~name" tokens on the file's non-comment lines (unknown or malformed
  // tokens are left for the parser to report in context).
  {
    std::istringstream scan(text);
    std::string line;
    while (std::getline(scan, line)) {
      if (StartsWith(Trim(line), "#")) continue;
      std::istringstream tokens(line);
      std::string token;
      while (tokens >> token) {
        if (token.size() > 1 && token[0] == '~') {
          (void)ResolveOp(ops, token.substr(1));
        }
      }
    }
  }

  // A serialized rule/RCK line is the MD "LHS -> target lists"; strip the
  // RHS back to a key after validating it equals the target.
  auto parse_key_md = [&](const std::string& body,
                          const char* what) -> Result<RelativeKey> {
    auto md = ParseMd(body, pair, *ops);
    if (!md.ok()) return md.status();
    if (md->rhs().size() != target.size()) {
      return Status::ParseError(std::string(what) +
                                " RHS does not match the target lists");
    }
    for (size_t i = 0; i < target.size(); ++i) {
      if (!(md->rhs()[i] == target.pair_at(i))) {
        return Status::ParseError(std::string(what) +
                                  " RHS differs from the target at position " +
                                  std::to_string(i));
      }
    }
    return RelativeKey(md->lhs());
  };

  std::istringstream stream(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    std::string trimmed(Trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (!saw_header) {
      if (!StartsWith(trimmed, kHeaderPrefix)) {
        return Status::ParseError("not a mdmatch plan file (bad header)");
      }
      std::string tail = trimmed.substr(std::string(kHeaderPrefix).size());
      const std::optional<size_t> parsed = ParseCount(tail);
      if (!parsed) {
        return Status::ParseError("not a mdmatch plan file (bad header)");
      }
      version = *parsed;
      if (version == 0 || version > kFormatVersion) {
        return Status::ParseError(
            "plan file format v" + tail + " is newer than this library "
            "supports (v" + std::to_string(kFormatVersion) +
            "); recompile the plan or upgrade");
      }
      saw_header = true;
      continue;
    }
    if (trimmed == "end") break;

    size_t space = trimmed.find(' ');
    if (space == std::string::npos) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": expected 'key value'");
    }
    std::string key = trimmed.substr(0, space);
    std::string value(Trim(trimmed.substr(space + 1)));
    auto bad = [&](const std::string& why) {
      return Status::ParseError("line " + std::to_string(line_no) + ": " +
                                why);
    };

    if (key == "matcher") {
      if (value == "rule") {
        options.matcher = PlanOptions::Matcher::kRuleBased;
      } else if (value == "fs") {
        options.matcher = PlanOptions::Matcher::kFellegiSunter;
      } else {
        return bad("unknown matcher '" + value + "'");
      }
    } else if (key == "candidates") {
      if (value == "windowing") {
        options.candidates = PlanOptions::Candidates::kWindowing;
      } else if (value == "blocking") {
        options.candidates = PlanOptions::Candidates::kBlocking;
      } else {
        return bad("unknown candidate mode '" + value + "'");
      }
    } else if (key == "window_size" || key == "num_rcks" || key == "top_k" ||
               key == "key_attrs") {
      const std::optional<size_t> parsed = ParseCount(value);
      if (!parsed) return bad("bad integer '" + value + "'");
      if (key == "window_size") options.window_size = *parsed;
      if (key == "num_rcks") options.num_rcks = *parsed;
      if (key == "top_k") options.top_k = *parsed;
      if (key == "key_attrs") options.key_attrs = *parsed;
    } else if (key == "relax_theta") {
      try {
        options.relax_theta = std::stod(value);
      } catch (...) {
        return bad("bad number '" + value + "'");
      }
    } else if (key == "transitive_closure") {
      options.transitive_closure = value == "1";
    } else if (key == "soundex_domains") {
      options.soundex_domains =
          value == "-" ? std::vector<std::string>{} : Split(value, ',');
    } else if (key == "sigma") {
      auto md = ParseMd(value, pair, *ops);
      if (!md.ok()) return md.status();
      sigma.push_back(std::move(*md));
    } else if (key == "rck") {
      auto parsed = parse_key_md(value, "rck");
      if (!parsed.ok()) return parsed.status();
      rcks.push_back(std::move(*parsed));
    } else if (key == "rule") {
      auto parsed = parse_key_md(value, "rule");
      if (!parsed.ok()) return parsed.status();
      rules.push_back(std::move(*parsed));
    } else if (key == "sortkey") {
      auto parsed = ParseKeyFunction(value, pair);
      if (!parsed.ok()) return parsed.status();
      sort_keys.push_back(std::move(*parsed));
    } else if (key == "blockkey") {
      auto parsed = ParseKeyFunction(value, pair);
      if (!parsed.ok()) return parsed.status();
      block_key = std::move(*parsed);
    } else if (key == "fs_vector") {
      auto parsed = ParseConjuncts(value, pair, ops);
      if (!parsed.ok()) return parsed.status();
      fs_vector = match::ComparisonVector(std::move(*parsed));
    } else if (key == "fs_m" || key == "fs_u") {
      auto parsed = ParseDoubles(value);
      if (!parsed.ok()) return parsed.status();
      (key == "fs_m" ? fs_model.m : fs_model.u) = std::move(*parsed);
      have_fs_model = true;
    } else if (key == "fs_p") {
      try {
        fs_model.p = std::stod(value);
      } catch (...) {
        return bad("bad number '" + value + "'");
      }
      have_fs_model = true;
      have_fs_p = true;
    } else if (key == "fs_threshold") {
      try {
        options.fs_options.match_threshold = std::stod(value);
      } catch (...) {
        return bad("bad number '" + value + "'");
      }
    } else if (key == "checksum") {
      declared_checksum = value;
    } else {
      return bad("unknown plan directive '" + key + "'");
    }
  }
  if (!saw_header) {
    return Status::ParseError("not a mdmatch plan file (empty)");
  }
  if (version >= 2 && !declared_checksum.has_value()) {
    return Status::ParseError(
        "plan file is missing its checksum line (truncated?)");
  }
  if (declared_checksum.has_value()) {
    const std::string actual = ChecksumHex(ContentChecksum(text));
    if (*declared_checksum != actual) {
      return Status::ParseError(
          "plan file checksum mismatch (declared " + *declared_checksum +
          ", content hashes to " + actual +
          "): the file is corrupt or was hand-edited; recompile the plan");
    }
  }
  if (rcks.empty()) {
    return Status::ParseError("plan file holds no RCKs");
  }

  PlanBuilder builder(pair, target, ops);
  builder.WithSigma(std::move(sigma))
      .WithOptions(options)
      .WithPrecompiledRcks(std::move(rcks));
  if (!rules.empty()) builder.WithRules(std::move(rules));
  if (!sort_keys.empty()) builder.WithSortKeys(std::move(sort_keys));
  if (block_key) builder.WithBlockKey(std::move(*block_key));
  if (options.matcher == PlanOptions::Matcher::kFellegiSunter) {
    if (!fs_vector || !have_fs_model || !have_fs_p ||
        fs_model.m.size() != fs_vector->size() ||
        fs_model.u.size() != fs_vector->size()) {
      return Status::ParseError(
          "fs plan file misses a consistent fs_vector / fs_m / fs_u / fs_p");
    }
    builder.WithFsBasis(std::move(*fs_vector), std::move(fs_model));
  }
  return builder.Build();
}

Result<PlanPtr> LoadPlanFromFile(const std::string& path,
                                 const SchemaPair& pair,
                                 const ComparableLists& target,
                                 sim::SimOpRegistry* ops) {
  auto text = ReadTextFile(path);
  if (!text.ok()) return text.status();
  return DeserializePlan(*text, pair, target, ops);
}

}  // namespace mdmatch::api
