// Tests for the project-wide passes of tools/lint (faaspart-lint): the
// include-graph builder and layering rule L1 on synthetic trees, the
// symbol-table goldens behind rule S1, the settle-exactly-once path
// checker E1 over its fixture truth table, the findings baseline/ratchet,
// the extended `.faaspart-lint` schema (parse errors included), and the
// acceptance canaries — under the repo's own config, a seeded upward
// include, a seeded cross-domain static and a seeded settle-skipping
// early return in the real ServingEngine must each fail the gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "include_graph.hpp"
#include "lexer.hpp"
#include "lint.hpp"
#include "symbols.hpp"

namespace lint = faaspart::lint;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string fixture_path(const std::string& name) {
  return std::string(LINT_FIXTURE_DIR) + "/" + name;
}

std::string repo_path(const std::string& rel) {
  return std::string(LINT_REPO_ROOT) + "/" + rel;
}

lint::Config repo_config() {
  lint::Config cfg;
  std::string err;
  EXPECT_TRUE(lint::parse_config(read_file(repo_path(".faaspart-lint")), cfg,
                                 err))
      << err;
  return cfg;
}

using Spans = std::vector<std::pair<std::string, int>>;

Spans spans_of(const std::vector<lint::Finding>& fs) {
  Spans out;
  for (const lint::Finding& f : fs) out.emplace_back(f.rule, f.line);
  return out;
}

/// (rule, line) pairs of one fixture under an all-rules-on empty config.
Spans lint_fixture(const std::string& name) {
  const lint::Config cfg;
  return spans_of(lint::lint_source("tests/lint_fixtures/" + name,
                                    read_file(fixture_path(name)), cfg));
}

}  // namespace

// ---------------------------------------------------------- include graph --

TEST(IncludeGraph, ScanFindsQuotedIncludesOnly) {
  const auto edges = lint::IncludeGraph::scan_includes(
      "#include <vector>\n"
      "#include \"gpu/mig.hpp\"\n"
      "  #  include   \"util/units.hpp\"\n"
      "// #include \"not/code.hpp\" in a comment is still scanned? no:\n"
      "int x;\n"
      "#include \"sim/simulator.hpp\"\n");
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].target, "gpu/mig.hpp");
  EXPECT_EQ(edges[0].line, 2);
  EXPECT_EQ(edges[1].target, "util/units.hpp");
  EXPECT_EQ(edges[1].line, 3);
  EXPECT_EQ(edges[2].target, "sim/simulator.hpp");
  EXPECT_EQ(edges[2].line, 6);
}

TEST(IncludeGraph, ModuleOfParsesSrcPathsOnly) {
  EXPECT_EQ(lint::IncludeGraph::module_of("src/gpu/mig.hpp"), "gpu");
  EXPECT_EQ(lint::IncludeGraph::module_of("src/serve/engine.cpp"), "serve");
  EXPECT_EQ(lint::IncludeGraph::module_of("tools/lint/lint.cpp"), "");
  EXPECT_EQ(lint::IncludeGraph::module_of("bench/x.cpp"), "");
  EXPECT_EQ(lint::IncludeGraph::module_of("src/toplevel.cpp"), "");
}

TEST(IncludeGraph, BuildResolvesSiblingThenSrcRoot) {
  const std::map<std::string, std::string> sources = {
      {"src/gpu/device.hpp", "#include \"arch.hpp\"\n"},        // sibling
      {"src/gpu/arch.hpp", "#include \"util/units.hpp\"\n"},    // src/ root
      {"src/util/units.hpp", ""},
      {"bench/b.cpp", "#include \"gpu/device.hpp\"\n"},         // src/ root
  };
  const auto g = lint::IncludeGraph::build(sources);
  ASSERT_EQ(g.files.size(), 4u);
  EXPECT_EQ(g.files.at("src/gpu/device.hpp").at(0).resolved,
            "src/gpu/arch.hpp");
  EXPECT_EQ(g.files.at("src/gpu/arch.hpp").at(0).resolved,
            "src/util/units.hpp");
  EXPECT_EQ(g.files.at("bench/b.cpp").at(0).resolved, "src/gpu/device.hpp");
  // Unresolvable targets keep an empty `resolved`, never guess.
  const auto g2 = lint::IncludeGraph::build(
      {{"src/a/x.hpp", "#include \"nowhere/y.hpp\"\n"}});
  EXPECT_EQ(g2.files.at("src/a/x.hpp").at(0).resolved, "");
}

TEST(IncludeGraph, ReachabilityFollowsResolvedEdges) {
  const std::map<std::string, std::string> sources = {
      {"src/a/root.hpp", "#include \"b/mid.hpp\"\n"},
      {"src/b/mid.hpp", "#include \"c/leaf.hpp\"\n"},
      {"src/c/leaf.hpp", ""},
      {"src/d/island.hpp", ""},
  };
  const auto g = lint::IncludeGraph::build(sources);
  const auto r = g.reachable_from("src/a/");
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.count("src/a/root.hpp"));
  EXPECT_TRUE(r.count("src/b/mid.hpp"));
  EXPECT_TRUE(r.count("src/c/leaf.hpp"));
  EXPECT_FALSE(r.count("src/d/island.hpp"));
}

TEST(IncludeGraph, FileCycleReportedOnceFromSmallestMember) {
  const std::map<std::string, std::string> sources = {
      {"src/m/a.hpp", "#include \"m/b.hpp\"\n"},
      {"src/m/b.hpp", "#include \"m/c.hpp\"\n"},
      {"src/m/c.hpp", "#include \"m/a.hpp\"\n"},
  };
  const auto cycles = lint::IncludeGraph::build(sources).file_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0],
            (std::vector<std::string>{"src/m/a.hpp", "src/m/b.hpp",
                                      "src/m/c.hpp"}));
}

TEST(IncludeGraph, AcyclicTreeHasNoCycles) {
  const std::map<std::string, std::string> sources = {
      {"src/m/a.hpp", "#include \"m/b.hpp\"\n#include \"m/c.hpp\"\n"},
      {"src/m/b.hpp", "#include \"m/c.hpp\"\n"},
      {"src/m/c.hpp", ""},
  };
  EXPECT_TRUE(lint::IncludeGraph::build(sources).file_cycles().empty());
}

// ------------------------------------------------------------------- L1 ----

namespace {

const std::vector<std::vector<std::string>> kTinyLayers = {
    {"util"}, {"gpu", "sched"}, {"serve"}};

Spans l1_spans(const std::map<std::string, std::string>& sources,
               const std::vector<std::vector<std::string>>& layers) {
  std::map<std::string, std::vector<lint::RawFinding>> raw;
  lint::IncludeGraph::build(sources).check_layers(layers, raw);
  Spans out;
  for (const auto& [path, fs] : raw)
    for (const lint::RawFinding& f : fs) out.emplace_back(path, f.line);
  return out;
}

}  // namespace

TEST(LintL1, DownwardIncludesAreClean) {
  EXPECT_EQ(l1_spans({{"src/serve/e.hpp",
                       "#include \"gpu/d.hpp\"\n#include \"util/u.hpp\"\n"},
                      {"src/gpu/d.hpp", "#include \"util/u.hpp\"\n"},
                      {"src/util/u.hpp", ""}},
                     kTinyLayers),
            Spans{});
}

TEST(LintL1, UpwardIncludeFiresAtTheIncludeLine) {
  EXPECT_EQ(l1_spans({{"src/util/u.hpp", "\n#include \"serve/e.hpp\"\n"},
                      {"src/serve/e.hpp", ""}},
                     kTinyLayers),
            (Spans{{"src/util/u.hpp", 2}}));
}

TEST(LintL1, SameLayerIncludeIsAPeerViolation) {
  EXPECT_EQ(l1_spans({{"src/gpu/d.hpp", "#include \"sched/s.hpp\"\n"},
                      {"src/sched/s.hpp", ""}},
                     kTinyLayers),
            (Spans{{"src/gpu/d.hpp", 1}}));
}

TEST(LintL1, UndeclaredModuleFiresAtLineOne) {
  EXPECT_EQ(l1_spans({{"src/mystery/m.hpp", ""}}, kTinyLayers),
            (Spans{{"src/mystery/m.hpp", 1}}));
}

TEST(LintL1, IntraModuleCycleFiresEvenWithinOneLayer) {
  const auto spans =
      l1_spans({{"src/gpu/a.hpp", "#include \"gpu/b.hpp\"\n"},
                {"src/gpu/b.hpp", "#include \"gpu/a.hpp\"\n"}},
               kTinyLayers);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (std::pair<std::string, int>{"src/gpu/a.hpp", 1}));
}

TEST(LintL1, DotRenderHasLayerRanksAndEdgeCounts) {
  const auto g = lint::IncludeGraph::build(
      {{"src/serve/e.hpp", "#include \"gpu/d.hpp\"\n#include \"gpu/x.hpp\"\n"},
       {"src/gpu/d.hpp", ""},
       {"src/gpu/x.hpp", ""}});
  const std::string dot = g.to_dot(kTinyLayers);
  EXPECT_NE(dot.find("rankdir=BT"), std::string::npos);
  EXPECT_NE(dot.find("{ rank=same; /* layer 1 */ \"gpu\"; }"),
            std::string::npos);
  EXPECT_NE(dot.find("\"serve\" -> \"gpu\" [label=\"2\"]"),
            std::string::npos);
  EXPECT_EQ(g.to_dot(kTinyLayers), dot);  // deterministic
}

TEST(LintL1, ProjectModeReportsLayeringThroughLintProject) {
  lint::Config cfg;
  std::string err;
  ASSERT_TRUE(lint::parse_config("layer util\nlayer serve\n", cfg, err))
      << err;
  const std::map<std::string, std::string> sources = {
      {"src/util/u.hpp", "#include \"serve/e.hpp\"\n"},
      {"src/serve/e.hpp", ""},
  };
  std::string dot;
  const auto fs = lint::lint_project(sources, cfg, &dot);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "L1");
  EXPECT_EQ(fs[0].file, "src/util/u.hpp");
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_NE(dot.find("digraph src_layering"), std::string::npos);
}

// The L1 canary: the repo's own layering declaration rejects a seeded
// upward include (util reaching into serve).
TEST(LintL1, CanarySeededUpwardIncludeFailsUnderRepoLayers) {
  const lint::Config cfg = repo_config();
  ASSERT_GE(cfg.layers.size(), 2u);
  const auto fs = lint::lint_project(
      {{"src/util/seeded.hpp", "#include \"serve/engine.hpp\"\n"},
       {"src/serve/engine.hpp", ""}},
      cfg);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "L1");
  EXPECT_NE(fs[0].message.find("upward include"), std::string::npos);
}

// The module-level audit: a src/ header that only tests (or its own .cpp)
// include is a module nothing runs. The graph covers every directory that
// ships or runs code and leaves tests/ out.
TEST(LintProject, RepoSrcHeadersAllHaveANonTestIncluder) {
  namespace fs = std::filesystem;
  const lint::Config cfg = repo_config();
  const fs::path root(LINT_REPO_ROOT);
  std::map<std::string, std::string> sources;
  for (const char* dir : {"src", "bench", "examples", "perfbench", "tools"}) {
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      const std::string ext = entry.path().extension().string();
      if (!entry.is_regular_file() || (ext != ".cpp" && ext != ".hpp")) continue;
      const std::string rel = fs::relative(entry.path(), root).generic_string();
      if (!cfg.skipped(rel)) sources[rel] = read_file(entry.path().string());
    }
  }
  const auto graph = lint::IncludeGraph::build(sources);
  std::map<std::string, std::set<std::string>> includers;
  for (const auto& [file, edges] : graph.files) {
    for (const lint::IncludeEdge& e : edges) {
      if (!e.resolved.empty()) includers[e.resolved].insert(file);
    }
  }
  std::vector<std::string> orphans;
  for (const auto& [file, edges] : graph.files) {
    if (file.rfind("src/", 0) != 0 || !file.ends_with(".hpp")) continue;
    const std::string own_cpp = file.substr(0, file.size() - 4) + ".cpp";
    const std::set<std::string>& by = includers[file];
    if (std::none_of(by.begin(), by.end(),
                     [&](const std::string& f) { return f != own_cpp; })) {
      orphans.push_back(file);
    }
  }
  EXPECT_EQ(orphans, std::vector<std::string>{});
}

// -------------------------------------------------------------- symbols ----

namespace {

lint::LexResult lex_of(std::string_view src, std::string& storage) {
  storage = std::string(src);
  return lint::lex(storage);
}

}  // namespace

TEST(LintSymbols, GoldenTableForRepresentativeDeclarations) {
  std::string storage;
  const auto lx = lex_of(
      "namespace faaspart {\n"                       // 1
      "int g_mut = 0;\n"                             // 2
      "const int kConst = 1;\n"                      // 3
      "constexpr double kPi = 3.14;\n"               // 4
      "struct Cache {\n"                             // 5
      "  static int hits;\n"                         // 6
      "  static constexpr int kWays = 4;\n"          // 7
      "  int score = 0;\n"                           // 8
      "};\n"                                         // 9
      "int f() {\n"                                  // 10
      "  static int counter = 0;\n"                  // 11
      "  thread_local int scratch = 0;\n"            // 12
      "  static const int kCap = 9;\n"               // 13
      "  int plain = 0;\n"                           // 14
      "  return counter + scratch + kCap + plain;\n" // 15
      "}\n"                                          // 16
      "}\n",
      storage);
  const auto syms = lint::extract_symbols("src/x/y.cpp", lx);

  // Pin the table as (kind, name, parent, line, is_const) rows.
  struct Row {
    lint::SymKind kind;
    std::string name, parent;
    int line;
    bool is_const;
  };
  const std::vector<Row> want = {
      {lint::SymKind::kGlobal, "g_mut", "", 2, false},
      {lint::SymKind::kGlobal, "kConst", "", 3, true},
      {lint::SymKind::kGlobal, "kPi", "", 4, true},
      // Classes are scope frames, not rows: `Cache` shows up only as the
      // parent of its members.
      {lint::SymKind::kStaticMember, "hits", "Cache", 6, false},
      {lint::SymKind::kStaticMember, "kWays", "Cache", 7, true},
      {lint::SymKind::kMember, "score", "Cache", 8, false},
      {lint::SymKind::kStaticLocal, "counter", "f", 11, false},
      {lint::SymKind::kStaticLocal, "scratch", "f", 12, false},
      {lint::SymKind::kStaticLocal, "kCap", "f", 13, true},
  };
  ASSERT_EQ(syms.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(syms[i].kind, want[i].kind) << "row " << i;
    EXPECT_EQ(syms[i].name, want[i].name) << "row " << i;
    EXPECT_EQ(syms[i].parent, want[i].parent) << "row " << i;
    EXPECT_EQ(syms[i].line, want[i].line) << "row " << i;
    EXPECT_EQ(syms[i].is_const, want[i].is_const) << "row " << i;
  }
}

TEST(LintSymbols, FunctionDeclarationsAndCallsAreNotVariables) {
  std::string storage;
  const auto lx = lex_of(
      "int free_fn(int a, int b);\n"
      "std::string render(const Table& t) { return t.name(); }\n"
      "int g_real = 0;\n",
      storage);
  const auto syms = lint::extract_symbols("src/x/y.cpp", lx);
  ASSERT_EQ(syms.size(), 1u);
  EXPECT_EQ(syms[0].name, "g_real");
}

TEST(LintSymbols, CheckStateIsolationFlagsOnlyMutableStatics) {
  std::vector<lint::Symbol> syms;
  lint::Symbol s;
  s.kind = lint::SymKind::kGlobal;
  s.name = "g";
  s.line = 1;
  syms.push_back(s);            // flagged
  s.is_const = true;
  s.line = 2;
  syms.push_back(s);            // const: quiet
  s = {};
  s.kind = lint::SymKind::kMember;
  s.name = "m";
  s.line = 3;
  syms.push_back(s);            // instance member: quiet
  s = {};
  s.kind = lint::SymKind::kStaticMember;
  s.name = "hits";
  s.parent = "Cache";
  s.line = 4;
  syms.push_back(s);            // flagged
  std::vector<lint::RawFinding> out;
  lint::check_state_isolation(syms, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].line, 1);
  EXPECT_EQ(out[1].line, 4);
}

// ------------------------------------------------------------------- S1 ----

namespace {

/// A two-domain synthetic project in which `shared_rel` is the file both
/// domain roots include.
std::map<std::string, std::string> two_domain_project(
    const std::string& shared_rel, const std::string& shared_content) {
  return {
      {"src/serve/engine.cpp", "#include \"" + shared_rel + "\"\n"},
      {"src/serve/disagg.cpp", "#include \"" + shared_rel + "\"\n"},
      {"src/" + shared_rel, shared_content},
  };
}

lint::Config two_domain_config() {
  lint::Config cfg;
  std::string err;
  EXPECT_TRUE(lint::parse_config(
      "domain src/serve/engine.\ndomain src/serve/disagg.\n", cfg, err))
      << err;
  return cfg;
}

}  // namespace

TEST(LintS1, CrossDomainStaticMutableStateFires) {
  const auto fs = lint::lint_project(
      two_domain_project("serve/shared.hpp", "int g_shared = 0;\n"),
      two_domain_config());
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "S1");
  EXPECT_EQ(fs[0].file, "src/serve/shared.hpp");
  EXPECT_EQ(fs[0].line, 1);
}

TEST(LintS1, SingleDomainReachabilityStaysQuiet) {
  // Only one root includes the file: state is domain-private.
  const auto fs = lint::lint_project(
      {{"src/serve/engine.cpp", "#include \"serve/private.hpp\"\n"},
       {"src/serve/disagg.cpp", ""},
       {"src/serve/private.hpp", "int g_private = 0;\n"}},
      two_domain_config());
  EXPECT_EQ(fs.size(), 0u);
}

TEST(LintS1, FewerThanTwoDomainsDisablesTheRule) {
  lint::Config cfg;
  std::string err;
  ASSERT_TRUE(lint::parse_config("domain src/serve/engine.\n", cfg, err));
  const auto fs = lint::lint_project(
      two_domain_project("serve/shared.hpp", "int g_shared = 0;\n"), cfg);
  EXPECT_EQ(fs.size(), 0u);
}

TEST(LintS1, WanBoundaryPrefixIsExempt) {
  lint::Config cfg;
  std::string err;
  ASSERT_TRUE(lint::parse_config(
      "domain src/serve/engine.\ndomain src/serve/disagg.\n"
      "wan-boundary src/federation/cluster.\n",
      cfg, err))
      << err;
  const auto fs = lint::lint_project(
      two_domain_project("federation/cluster.hpp",
                         "int g_queue_depth = 0;\n"),
      cfg);
  EXPECT_EQ(fs.size(), 0u);
}

TEST(LintS1, FixturePairExactSpansThroughLintProject) {
  const auto bad = lint::lint_project(
      two_domain_project("serve/s1_bad.hpp",
                         read_file(fixture_path("s1_bad.cpp"))),
      two_domain_config());
  Spans bad_spans;
  for (const auto& f : bad) {
    EXPECT_EQ(f.file, "src/serve/s1_bad.hpp");
    bad_spans.emplace_back(f.rule, f.line);
  }
  // The thread_local line draws C1 too (raw threading primitive outside
  // src/runner) — the two rules agree that line is a hazard.
  EXPECT_EQ(bad_spans, (Spans{{"S1", 8},
                              {"S1", 9},
                              {"S1", 12},
                              {"S1", 17},
                              {"C1", 18},
                              {"S1", 18}}));

  const auto good = lint::lint_project(
      two_domain_project("serve/s1_good.hpp",
                         read_file(fixture_path("s1_good.cpp"))),
      two_domain_config());
  EXPECT_EQ(spans_of(good), Spans{});
}

// The S1 canary under the REPO config: both serve domains reaching one
// seeded mutable global must fail the gate.
TEST(LintS1, CanarySeededCrossDomainStaticFailsUnderRepoConfig) {
  const lint::Config cfg = repo_config();
  ASSERT_GE(cfg.domains.size(), 2u);
  const auto fs = lint::lint_project(
      {{"src/serve/engine.cpp", "#include \"serve/request.hpp\"\n"},
       {"src/serve/disagg.cpp", "#include \"serve/request.hpp\"\n"},
       {"src/serve/request.hpp", "static int g_leak = 0;\n"}},
      cfg);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "S1");
  EXPECT_EQ(fs[0].file, "src/serve/request.hpp");
}

// ------------------------------------------------------------------- E1 ----

TEST(LintE1, TruthTableFiresWithExactSpans) {
  EXPECT_EQ(lint_fixture("e1_bad.cpp"),
            (Spans{{"E1", 8},     // early return leak
                   {"E1", 14},    // co_return leak
                   {"E1", 25},    // retry-ladder exhaustion leak
                   {"E1", 36},    // preempt-then-requeue leak
                   {"E1", 44}})); // double settle
}

TEST(LintE1, GoodTruthTableIsCleanIncludingJustifiedOutParamTransfer) {
  EXPECT_EQ(lint_fixture("e1_good.cpp"), Spans{});
}

TEST(LintE1, ConfigurableOwnerAndSettleVocabulary) {
  lint::Config cfg;
  std::string err;
  ASSERT_TRUE(lint::parse_config("e1-owner JobPtr\ne1-settle finish\n", cfg,
                                 err))
      << err;
  EXPECT_EQ(cfg.e1_owners, (std::vector<std::string>{"JobPtr"}));
  EXPECT_EQ(cfg.e1_settles, (std::vector<std::string>{"finish"}));
  const std::string src =
      "void run(JobPtr j, bool bail) {\n"
      "  if (bail) return;\n"
      "  finish(*j);\n"
      "}\n";
  const auto fs = lint::lint_source("src/x.cpp", src, cfg);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "E1");
  EXPECT_EQ(fs[0].line, 2);
  // The default vocabulary does not know JobPtr at all.
  EXPECT_TRUE(lint::lint_source("src/x.cpp", src, lint::Config{}).empty());
}

// The E1 mutation canary the issue names: seed a settle-skipping early
// return into the real ServingEngine::enqueue and the gate must fail with
// exactly one fresh E1 under the repo's own config.
TEST(LintE1, CanarySeededSettleSkippingReturnInEngineFailsTheGate) {
  const lint::Config cfg = repo_config();
  const std::string engine = read_file(repo_path("src/serve/engine.cpp"));
  ASSERT_TRUE(lint::lint_source("src/serve/engine.cpp", engine, cfg).empty())
      << "real engine.cpp must be lint-clean for the mutation to be the "
         "only finding";

  const std::string anchor = "void ServingEngine::enqueue(ServedRequestPtr r) {";
  const std::size_t at = engine.find(anchor);
  ASSERT_NE(at, std::string::npos);
  std::string seeded = engine;
  seeded.insert(at + anchor.size(), "\n  if (loop_exited_) return;");
  const auto fs = lint::lint_source("src/serve/engine.cpp", seeded, cfg);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "E1");
  EXPECT_NE(fs[0].message.find("'return' leaves with adopted request 'r'"),
            std::string::npos);
}

// ------------------------------------------------------------- baseline ----

TEST(LintBaseline, ParsesJsonlAndCountsDuplicates) {
  lint::Baseline b;
  std::string err;
  ASSERT_TRUE(lint::parse_baseline(
      "{\"file\":\"a.cpp\",\"line\":7,\"rule\":\"D1\",\"message\":\"m\"}\n"
      "\n"
      "{\"file\":\"a.cpp\",\"line\":9,\"rule\":\"D1\",\"message\":\"m\"}\n"
      "{\"file\":\"b.cpp\",\"line\":1,\"rule\":\"D2\",\"message\":\"x\\\"y\"}\n",
      b, err))
      << err;
  // Line numbers do not participate in the key: the two a.cpp entries
  // collapse into one key with count 2.
  ASSERT_EQ(b.counts.size(), 2u);
  EXPECT_EQ(b.counts.at(lint::Baseline::key({"a.cpp", 0, "D1", "m"})), 2u);
  EXPECT_EQ(b.counts.at(lint::Baseline::key({"b.cpp", 0, "D2", "x\"y"})), 1u);
}

TEST(LintBaseline, RejectsEntriesMissingTheTriple) {
  lint::Baseline b;
  std::string err;
  EXPECT_FALSE(lint::parse_baseline("{\"file\":\"a.cpp\",\"line\":7}\n", b,
                                    err));
  EXPECT_FALSE(lint::parse_baseline("not json at all\n", b, err));
}

TEST(LintBaseline, ApplySplitsFreshMatchedStale) {
  lint::Baseline b;
  std::string err;
  ASSERT_TRUE(lint::parse_baseline(
      "{\"file\":\"a.cpp\",\"line\":7,\"rule\":\"D1\",\"message\":\"m\"}\n"
      "{\"file\":\"gone.cpp\",\"line\":3,\"rule\":\"D2\",\"message\":\"z\"}\n",
      b, err));
  const std::vector<lint::Finding> now = {
      {"a.cpp", 99, "D1", "m"},       // moved but known: matched
      {"a.cpp", 100, "D1", "fresh"},  // new message: fresh
  };
  const lint::BaselineDelta d = lint::apply_baseline(now, b);
  ASSERT_EQ(d.fresh.size(), 1u);
  EXPECT_EQ(d.fresh[0].message, "fresh");
  EXPECT_EQ(d.matched, 1u);
  EXPECT_EQ(d.stale, 1u);  // the gone.cpp entry no longer fires
}

TEST(LintBaseline, DuplicateFindingsConsumeDuplicateCounts) {
  lint::Baseline b;
  std::string err;
  ASSERT_TRUE(lint::parse_baseline(
      "{\"file\":\"a.cpp\",\"line\":1,\"rule\":\"D1\",\"message\":\"m\"}\n",
      b, err));
  const std::vector<lint::Finding> now = {
      {"a.cpp", 1, "D1", "m"},
      {"a.cpp", 2, "D1", "m"},  // second occurrence exceeds the count
  };
  const lint::BaselineDelta d = lint::apply_baseline(now, b);
  ASSERT_EQ(d.fresh.size(), 1u);
  EXPECT_EQ(d.matched, 1u);
  EXPECT_EQ(d.stale, 0u);
}

TEST(LintBaseline, RepoBaselineIsEmpty) {
  lint::Baseline b;
  std::string err;
  ASSERT_TRUE(lint::parse_baseline(
      read_file(repo_path("lint_baseline.jsonl")), b, err))
      << err;
  EXPECT_TRUE(b.counts.empty());
}

// --------------------------------------------------------------- config ----

TEST(LintConfigSchema, ParsesLayersDomainsBoundaryAndBaseline) {
  lint::Config cfg;
  std::string err;
  ASSERT_TRUE(lint::parse_config(
      "layer util\n"
      "layer trace sim\n"
      "domain src/serve/engine.\n"
      "domain src/faas/executor.\n"
      "wan-boundary src/federation/cluster.\n"
      "baseline lint_baseline.jsonl\n",
      cfg, err))
      << err;
  ASSERT_EQ(cfg.layers.size(), 2u);
  EXPECT_EQ(cfg.layers[1],
            (std::vector<std::string>{"trace", "sim"}));
  EXPECT_EQ(cfg.domains.size(), 2u);
  EXPECT_EQ(cfg.wan_boundary.size(), 1u);
  EXPECT_EQ(cfg.baseline_path, "lint_baseline.jsonl");
}

TEST(LintConfigSchema, ModuleInTwoLayersIsAParseError) {
  lint::Config cfg;
  std::string err;
  EXPECT_FALSE(lint::parse_config("layer util\nlayer util gpu\n", cfg, err));
  EXPECT_NE(err.find("two layers"), std::string::npos);
}

TEST(LintConfigSchema, DuplicateBaselineIsAParseError) {
  lint::Config cfg;
  std::string err;
  EXPECT_FALSE(
      lint::parse_config("baseline a.jsonl\nbaseline b.jsonl\n", cfg, err));
  EXPECT_NE(err.find("duplicate 'baseline'"), std::string::npos);
}

TEST(LintConfigSchema, MalformedDirectivesStillFailClosed) {
  lint::Config cfg;
  std::string err;
  EXPECT_FALSE(lint::parse_config("layer\n", cfg, err));         // no module
  EXPECT_FALSE(lint::parse_config("domain\n", cfg, err));        // no prefix
  EXPECT_FALSE(lint::parse_config("domain a b\n", cfg, err));    // two args
  EXPECT_FALSE(lint::parse_config("wan-boundary\n", cfg, err));
  EXPECT_FALSE(lint::parse_config("baseline\n", cfg, err));
  EXPECT_FALSE(lint::parse_config("e1-owner\n", cfg, err));
}

TEST(LintConfigSchema, RepoConfigParsesAndEnablesEveryProjectPass) {
  const lint::Config cfg = repo_config();
  EXPECT_GE(cfg.layers.size(), 5u);
  EXPECT_GE(cfg.domains.size(), 2u);
  EXPECT_GE(cfg.wan_boundary.size(), 1u);
  EXPECT_EQ(cfg.baseline_path, "lint_baseline.jsonl");
  // The layering is total over the real src/ modules: linting an empty
  // representative of each module must produce no undeclared-module L1.
  std::map<std::string, std::string> sources;
  for (const char* m :
       {"util", "trace", "sim", "obs", "faults", "gpu", "sched", "nvml",
        "faas", "core", "workloads", "federation", "scenario", "serve",
        "runner"}) {
    sources["src/" + std::string(m) + "/probe_representative.hpp"] = "";
  }
  EXPECT_EQ(spans_of(lint::lint_project(sources, cfg)), Spans{});
}
