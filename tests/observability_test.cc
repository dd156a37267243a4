// End-to-end observability tests: the match path's trace shape on both
// engines, the §6.3.2 category-augmentation finding reproduced by counters
// (deterministic — no wall-clock assertions), server/proxy metrics, and the
// one tracing switch: a supplied context is traced, a null one is not, and
// the two paths return identical results.

#include <gtest/gtest.h>

#include <string>

#include "obs/trace.h"
#include "server/policy_server.h"
#include "server/proxy_service.h"
#include "workload/paper_examples.h"

namespace p3pdb::server {
namespace {

using obs::TraceContext;
using obs::TraceSpan;

Result<std::unique_ptr<PolicyServer>> MakeSqlServer(
    bool record_matches = false) {
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.record_matches = record_matches;
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<PolicyServer> server,
                         PolicyServer::Create(options));
  P3PDB_RETURN_IF_ERROR(
      server->InstallPolicy(workload::VolgaPolicy()).status());
  P3PDB_RETURN_IF_ERROR(
      server->InstallReferenceFile(workload::VolgaReferenceFile()));
  return server;
}

// Collects every "work" counter in the tree, keyed by span name.
void CollectWork(const TraceSpan& span,
                 std::vector<std::pair<std::string, uint64_t>>* out) {
  for (const auto& [key, value] : span.counters) {
    if (key == "work") out->emplace_back(span.name, value);
  }
  for (const auto& child : span.children) CollectWork(*child, out);
}

TEST(ObservabilityTest, Section6AugmentationDominatesByCounter) {
  // §6.3.2: on the native APPEL engine with per-match augmentation, the
  // dominant cost of a match is augmenting the policy with the category
  // schema — not evaluating the rule connectives. The spans carry explicit
  // work counters (elements visited), so the comparison is deterministic.
  auto server = PolicyServer::Create({.engine = EngineKind::kNativeAppel,
                                      .augmentation = Augmentation::kPerMatch});
  ASSERT_TRUE(server.ok());
  auto policy_id = server.value()->InstallPolicy(workload::VolgaPolicy());
  ASSERT_TRUE(policy_id.ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());

  TraceContext trace;
  auto result = server.value()->MatchPolicyId(pref.value(), policy_id.value(),
                                              &trace);
  ASSERT_TRUE(result.ok());

  const TraceSpan* aug = trace.FindSpan("category-augmentation");
  const TraceSpan* eval = trace.FindSpan("connective-eval");
  ASSERT_NE(aug, nullptr) << trace.RenderText();
  ASSERT_NE(eval, nullptr) << trace.RenderText();
  EXPECT_GT(aug->CounterValue("work"), 0u);
  EXPECT_GT(aug->CounterValue("work"), eval->CounterValue("work"))
      << trace.RenderText();

  // Strictly the largest work counter anywhere in the tree.
  std::vector<std::pair<std::string, uint64_t>> work;
  CollectWork(*trace.root(), &work);
  for (const auto& [name, value] : work) {
    if (name == "category-augmentation") continue;
    EXPECT_LT(value, aug->CounterValue("work")) << name;
  }
}

TEST(ObservabilityTest, PreAugmentedEngineSkipsAugmentationSpan) {
  // With schema-augmented storage (the paper's fix), per-match augmentation
  // disappears from the trace entirely.
  auto server =
      PolicyServer::Create({.engine = EngineKind::kNativeAppel,
                            .augmentation = Augmentation::kAtInstall});
  ASSERT_TRUE(server.ok());
  auto policy_id = server.value()->InstallPolicy(workload::VolgaPolicy());
  ASSERT_TRUE(policy_id.ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());
  TraceContext trace;
  ASSERT_TRUE(server.value()
                  ->MatchPolicyId(pref.value(), policy_id.value(), &trace)
                  .ok());
  EXPECT_EQ(trace.FindSpan("category-augmentation"), nullptr)
      << trace.RenderText();
  EXPECT_NE(trace.FindSpan("connective-eval"), nullptr) << trace.RenderText();
}

TEST(ObservabilityTest, SqlMatchTraceShape) {
  auto server = MakeSqlServer(/*record_matches=*/true);
  ASSERT_TRUE(server.ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());

  TraceContext trace;
  auto result = server.value()->MatchUri(pref.value(), "/catalog/specials",
                                         &trace);
  ASSERT_TRUE(result.ok());

  const TraceSpan* root = trace.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "match");
  // The match pipeline: reference-file lookup, then rule queries against
  // the shredded policy, each backed by the SQL executor spans.
  const TraceSpan* ref = root->FindChild("ref-lookup");
  ASSERT_NE(ref, nullptr) << trace.RenderText();
  EXPECT_NE(trace.FindSpan("sql-execute"), nullptr) << trace.RenderText();
  EXPECT_NE(trace.FindSpan("rule-query"), nullptr) << trace.RenderText();
  EXPECT_NE(trace.FindSpan("record-match"), nullptr) << trace.RenderText();

  // The rendered tree carries the engine attribute and per-span counters.
  std::string text = trace.RenderText();
  EXPECT_NE(text.find("engine=sql"), std::string::npos) << text;
}

TEST(ObservabilityTest, TracedCompileHasTranslateSpans) {
  auto server = MakeSqlServer();
  ASSERT_TRUE(server.ok());
  TraceContext trace;
  auto pref = server.value()->CompilePreference(workload::JanePreference(),
                                                &trace);
  ASSERT_TRUE(pref.ok());
  const TraceSpan* root = trace.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "compile-preference");
  EXPECT_NE(root->FindChild("translate"), nullptr) << trace.RenderText();
  EXPECT_NE(trace.FindSpan("translate-rule"), nullptr) << trace.RenderText();
}

TEST(ObservabilityTest, SuppliedContextIsTheOnlyTracingSwitch) {
  // A default-options server has no tracing option to turn on: passing a
  // context is what traces a match, and passing none (null) is the
  // untraced path. Each subject is matched on two fresh servers — one
  // traced, one not — so both run the full resolve/evaluate pipeline, and
  // the answers must be identical.
  struct Subject {
    const char* path;  // null = match by policy id
    bool cookie;
  };
  const Subject subjects[] = {{"/catalog/specials", false},
                              {"/catalog/books/1984", false},
                              {"/about/team", false},
                              {"/cart/session", true},
                              {nullptr, false}};
  for (const Subject& subject : subjects) {
    SCOPED_TRACE(subject.path == nullptr ? "policy-id" : subject.path);
    Result<MatchResult> results[2] = {Status::Internal("unset"),
                                      Status::Internal("unset")};
    for (int traced = 0; traced < 2; ++traced) {
      auto server = PolicyServer::Create(PolicyServer::Options{});
      ASSERT_TRUE(server.ok());
      PolicyServer& s = *server.value();
      auto policy_id = s.InstallPolicy(workload::VolgaPolicy());
      ASSERT_TRUE(policy_id.ok());
      ASSERT_TRUE(s.InstallReferenceFile(workload::VolgaReferenceFile()).ok());
      auto pref = s.CompilePreference(workload::JanePreference());
      ASSERT_TRUE(pref.ok());
      TraceContext trace;
      TraceContext* t = traced == 1 ? &trace : nullptr;
      results[traced] =
          subject.path == nullptr
              ? s.MatchPolicyId(pref.value(), policy_id.value(), t)
          : subject.cookie ? s.MatchCookie(pref.value(), subject.path, t)
                           : s.MatchUri(pref.value(), subject.path, t);
      ASSERT_TRUE(results[traced].ok()) << results[traced].status();
      if (t == nullptr) {
        EXPECT_EQ(trace.root(), nullptr);
        continue;
      }
      ASSERT_NE(trace.root(), nullptr);
      EXPECT_EQ(trace.root()->name, "match") << trace.RenderText();
      EXPECT_EQ(trace.root()->FindChild("ref-lookup") != nullptr,
                subject.path != nullptr)
          << trace.RenderText();
      if (results[traced].value().policy_found) {
        EXPECT_NE(trace.FindSpan("rule-query"), nullptr)
            << trace.RenderText();
        EXPECT_NE(trace.FindSpan("sql-execute"), nullptr)
            << trace.RenderText();
      }
    }
    const MatchResult& untraced = results[0].value();
    const MatchResult& traced = results[1].value();
    EXPECT_EQ(untraced.behavior, traced.behavior);
    EXPECT_EQ(untraced.fired_rule_index, traced.fired_rule_index);
    EXPECT_EQ(untraced.policy_found, traced.policy_found);
    EXPECT_EQ(untraced.policy_id, traced.policy_id);
  }
}

TEST(ObservabilityTest, ServerMetricsCountMatches) {
  auto server = MakeSqlServer();
  ASSERT_TRUE(server.ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        server.value()->MatchUri(pref.value(), "/catalog/specials").ok());
  }

  obs::MetricsSnapshot snap = server.value()->MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("p3p_matches_total"), 3u);
  EXPECT_EQ(snap.counters.at("p3p_match_errors_total"), 0u);
  EXPECT_EQ(snap.counters.at("p3p_preference_compiles_total"), 1u);
  EXPECT_GE(snap.counters.at("p3p_rule_queries_total"), 1u);
  EXPECT_EQ(snap.gauges.at("p3p_policies_installed"), 1);
  EXPECT_EQ(snap.histograms.at("p3p_match_duration_us").count, 3u);

  // The match cache is on by default: the first identical match misses and
  // the two repeats are warm hits, mirrored into the registry.
  EXPECT_EQ(snap.counters.at("p3p_match_cache_hits_total"), 2u);
  EXPECT_EQ(snap.counters.at("p3p_match_cache_misses_total"), 1u);
  EXPECT_EQ(snap.gauges.at("p3p_match_cache_entries"), 1);
  EXPECT_EQ(snap.histograms.at("p3p_match_cache_hit_duration_us").count, 2u);
  EXPECT_EQ(snap.histograms.at("p3p_match_cache_miss_duration_us").count, 1u);

  // Both renderings carry the same counter.
  EXPECT_NE(
      server.value()->RenderMetricsText().find("p3p_matches_total 3"),
      std::string::npos);
  EXPECT_NE(
      server.value()->RenderMetricsJson().find("\"p3p_matches_total\": 3"),
      std::string::npos);
}

TEST(ObservabilityTest, MetricsCanBeDisabled) {
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.collect_metrics = false;
  auto server = PolicyServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
  ASSERT_TRUE(server.value()
                  ->InstallReferenceFile(workload::VolgaReferenceFile())
                  .ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());
  ASSERT_TRUE(
      server.value()->MatchUri(pref.value(), "/catalog/specials").ok());
  obs::MetricsSnapshot snap = server.value()->MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("p3p_matches_total"), 0u);
  EXPECT_EQ(snap.histograms.at("p3p_match_duration_us").count, 0u);
}

TEST(ObservabilityTest, ProxyCountsRequestsAndForwardsTrace) {
  PolicyServer::Options site_options;
  site_options.engine = EngineKind::kSql;
  ProxyService proxy(site_options);
  auto site = proxy.AddSite("books.example");
  ASSERT_TRUE(site.ok());
  ASSERT_TRUE(site.value()->InstallPolicy(workload::VolgaPolicy()).ok());
  ASSERT_TRUE(
      site.value()->InstallReferenceFile(workload::VolgaReferenceFile()).ok());
  ASSERT_TRUE(proxy.Subscribe("jane", workload::JanePreference()).ok());

  TraceContext trace;
  auto result = proxy.HandleRequest("jane", "books.example",
                                    "/catalog/specials", &trace);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(trace.root(), nullptr);
  EXPECT_EQ(trace.root()->name, "proxy-request");
  // The site server honored the forwarded context: its match span nests
  // under the proxy's.
  EXPECT_NE(trace.FindSpan("match"), nullptr) << trace.RenderText();

  auto missing = proxy.HandleRequest("jane", "nowhere.example", "/");
  EXPECT_FALSE(missing.ok());

  obs::MetricsSnapshot snap = proxy.MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("proxy_requests_total"), 2u);
  EXPECT_EQ(snap.counters.at("proxy_request_errors_total"), 1u);
  EXPECT_EQ(snap.histograms.at("proxy_request_duration_us").count, 2u);
}

}  // namespace
}  // namespace p3pdb::server
