// Parser for the XQuery subset of Figure 17/18 (see ast.h).

#ifndef P3PDB_XQUERY_PARSER_H_
#define P3PDB_XQUERY_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "xquery/ast.h"

namespace p3pdb::xquery {

/// Condition nesting the parser accepts: a bracketed condition is level 1,
/// and each parenthesis, not(...) and nested step predicate opens one more
/// level. The parser recurses once per level, so without a bound a deeply
/// nested query overflows the stack; deeper input fails with a ParseError.
constexpr int kMaxConditionDepth = 256;

/// Parses `if (document("...")[cond]...) then <name/> [else ()]`.
Result<Query> ParseQuery(std::string_view text);

}  // namespace p3pdb::xquery

#endif  // P3PDB_XQUERY_PARSER_H_
