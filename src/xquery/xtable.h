// XTABLE-style XQuery -> SQL translation (the paper's §4 variation 2 and
// the "XQuery" column of Figures 20-21).
//
// XTABLE (a.k.a. XPERANTO) accepted an XQuery over an XML view of
// relational data and generated SQL against the underlying tables. Here the
// underlying tables are the simple (Figure 8) schema — the uniform
// one-table-per-element decomposition a generic view-definition tool would
// produce — and the generated SQL carries one EXISTS subquery per XPath
// step and per vocabulary element, without the value-merging optimization
// the hand-written Figure 15 translator applies. This is what makes the
// XQuery path slower than the direct SQL path (the "untapped optimizations"
// the paper observes), and, with a bounded statement complexity budget,
// what makes the deeply nested Medium preference untranslatable (the empty
// Figure 21 cell).
//
// Like the parameterized Figure 11/15 translations, the generated SQL takes
// the applicable policy id as a bind parameter: every document-level POLICY
// test becomes `EXISTS (SELECT * FROM Policy WHERE Policy.policy_id = ? ...)`
// and the rule selects FROM the static one-row ApplicablePolicy anchor, so
// matching writes nothing.

#ifndef P3PDB_XQUERY_XTABLE_H_
#define P3PDB_XQUERY_XTABLE_H_

#include <string>

#include "common/result.h"
#include "translator/sql_simple.h"
#include "xquery/ast.h"
#include "xquery/translate_appel.h"

namespace p3pdb::xquery {

class XTableTranslator {
 public:
  /// Translates one rule's XQuery into SQL against the simple schema. Each
  /// document-level POLICY test binds the policy id as one `?`; the count
  /// goes to `param_count` when non-null (zero for a catch-all).
  Result<std::string> TranslateQuery(const Query& query,
                                     size_t* param_count = nullptr) const;

  /// Parses and translates every rule of an XQuery ruleset. XTABLE consumes
  /// the XQuery *text*, so both conversions are part of this path's cost.
  Result<translator::SqlRuleset> TranslateRuleset(
      const XQueryRuleset& rs) const;
};

}  // namespace p3pdb::xquery

#endif  // P3PDB_XQUERY_XTABLE_H_
