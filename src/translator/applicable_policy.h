// The applicablePolicy() function of the paper's Figure 11: a query over
// the reference-file tables (Figure 16) returning the id of the policy
// governing a requested URI.
//
// The paper materializes its result as the one-row temporary table
// "ApplicablePolicy" that the generated rule queries select FROM (the
// Figure 13 preamble). The server instead runs this query, then binds the
// resulting id into every rule query as a `?` parameter; ApplicablePolicy
// stays a static one-row FROM anchor, installed at bootstrap and never
// written by a match (server/policy_server.cc). Only the literal
// Figure 11/15 translations, pinned by the paper goldens, still join it.

#ifndef P3PDB_TRANSLATOR_APPLICABLE_POLICY_H_
#define P3PDB_TRANSLATOR_APPLICABLE_POLICY_H_

#include <string>
#include <string_view>

namespace p3pdb::translator {

/// Name of the one-row table the rule queries select FROM.
inline constexpr const char* kApplicablePolicyTable = "ApplicablePolicy";

/// Builds the SQL locating the applicable policy for `local_path` per spec
/// §2.4.1: the first POLICY-REF (document order) with a matching INCLUDE
/// and no matching EXCLUDE. Patterns were converted to LIKE at shred time.
std::string ApplicablePolicyQuery(std::string_view local_path,
                                  bool for_cookie = false);

/// DDL for the one-row table.
std::string ApplicablePolicyDdl();

}  // namespace p3pdb::translator

#endif  // P3PDB_TRANSLATOR_APPLICABLE_POLICY_H_
