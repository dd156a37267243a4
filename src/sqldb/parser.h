// Recursive-descent SQL parser producing the AST of ast.h.

#ifndef P3PDB_SQLDB_PARSER_H_
#define P3PDB_SQLDB_PARSER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sqldb/ast.h"

namespace p3pdb::sqldb {

/// Expression nesting the parser accepts: the outermost expression of a
/// clause is level 1, and each parenthesis, NOT, subquery, IN list and
/// aggregate argument opens one more level. The parser recurses once per
/// level, so without a bound a deeply nested statement overflows the stack;
/// deeper input fails with a ParseError. The translators' generated SQL
/// nests at most 15 levels.
constexpr int kMaxExpressionDepth = 256;

/// Parses a single SQL statement (a trailing semicolon is allowed).
Result<std::unique_ptr<Statement>> ParseStatement(std::string_view sql);

/// Parses a semicolon-separated script. Empty statements are skipped.
Result<std::vector<std::unique_ptr<Statement>>> ParseScript(
    std::string_view sql);

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_PARSER_H_
