#include "xquery/parser.h"

#include "common/string_util.h"

namespace p3pdb::xquery {

namespace {

bool IsNameChar(char c) {
  return IsAsciiAlpha(c) || IsAsciiDigit(c) || c == '-' || c == '_' ||
         c == '.' || c == ':';
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Query> Parse() {
    Query query;
    P3PDB_RETURN_IF_ERROR(ExpectWord("if"));
    P3PDB_RETURN_IF_ERROR(Expect('('));
    P3PDB_RETURN_IF_ERROR(ExpectWord("document"));
    P3PDB_RETURN_IF_ERROR(Expect('('));
    P3PDB_ASSIGN_OR_RETURN(query.document_arg, ParseString());
    P3PDB_RETURN_IF_ERROR(Expect(')'));
    Skip();
    while (Peek() == '[') {
      Advance();
      P3PDB_ASSIGN_OR_RETURN(Cond cond, ParseOr());
      query.conditions.push_back(std::move(cond));
      P3PDB_RETURN_IF_ERROR(Expect(']'));
      Skip();
    }
    P3PDB_RETURN_IF_ERROR(Expect(')'));
    P3PDB_RETURN_IF_ERROR(ExpectWord("then"));
    Skip();
    P3PDB_RETURN_IF_ERROR(Expect('<'));
    P3PDB_ASSIGN_OR_RETURN(query.behavior, ParseName());
    P3PDB_RETURN_IF_ERROR(Expect('/'));
    P3PDB_RETURN_IF_ERROR(Expect('>'));
    Skip();
    // Optional `else ()`.
    if (!AtEnd() && PeekWord("else")) {
      P3PDB_RETURN_IF_ERROR(ExpectWord("else"));
      P3PDB_RETURN_IF_ERROR(Expect('('));
      P3PDB_RETURN_IF_ERROR(Expect(')'));
    }
    Skip();
    if (!AtEnd()) return Error("trailing input");
    return query;
  }

 private:
  void Skip() {
    while (pos_ < text_.size() && IsAsciiSpace(text_[pos_])) ++pos_;
  }
  bool AtEnd() {
    Skip();
    return pos_ >= text_.size();
  }
  char Peek() {
    Skip();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void Advance() { ++pos_; }

  bool PeekWord(std::string_view word) {
    Skip();
    if (text_.substr(pos_).substr(0, word.size()) != word) return false;
    size_t after = pos_ + word.size();
    return after >= text_.size() || !IsNameChar(text_[after]);
  }

  Status ExpectWord(std::string_view word) {
    if (!PeekWord(word)) {
      return Error("expected '" + std::string(word) + "'");
    }
    pos_ += word.size();
    return Status::OK();
  }

  Status Expect(char c) {
    if (Peek() != c) return Error(std::string("expected '") + c + "'");
    Advance();
    return Status::OK();
  }

  Status Error(std::string msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_) +
                              " in XQuery");
  }

  Result<std::string> ParseString() {
    if (Peek() != '"') return Error("expected string literal");
    Advance();
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      out.push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    Advance();
    return out;
  }

  Result<std::string> ParseName() {
    Skip();
    size_t start = pos_;
    while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected name");
    return std::string(text_.substr(start, pos_ - start));
  }

  // Every nesting level passes through here once (see kMaxConditionDepth).
  Result<Cond> ParseOr() {
    if (depth_ == kMaxConditionDepth) {
      return Error("condition nested deeper than " +
                   std::to_string(kMaxConditionDepth) + " levels");
    }
    ++depth_;
    Result<Cond> cond = ParseOrList();
    --depth_;
    return cond;
  }

  Result<Cond> ParseOrList() {
    P3PDB_ASSIGN_OR_RETURN(Cond first, ParseAnd());
    if (!PeekWord("or")) return first;
    Cond cond;
    cond.kind = CondKind::kOr;
    cond.children.push_back(std::move(first));
    while (PeekWord("or")) {
      P3PDB_RETURN_IF_ERROR(ExpectWord("or"));
      P3PDB_ASSIGN_OR_RETURN(Cond next, ParseAnd());
      cond.children.push_back(std::move(next));
    }
    return cond;
  }

  Result<Cond> ParseAnd() {
    P3PDB_ASSIGN_OR_RETURN(Cond first, ParsePrimary());
    if (!PeekWord("and")) return first;
    Cond cond;
    cond.kind = CondKind::kAnd;
    cond.children.push_back(std::move(first));
    while (PeekWord("and")) {
      P3PDB_RETURN_IF_ERROR(ExpectWord("and"));
      P3PDB_ASSIGN_OR_RETURN(Cond next, ParsePrimary());
      cond.children.push_back(std::move(next));
    }
    return cond;
  }

  Result<Cond> ParsePrimary() {
    Skip();
    if (PeekWord("not")) {
      P3PDB_RETURN_IF_ERROR(ExpectWord("not"));
      P3PDB_RETURN_IF_ERROR(Expect('('));
      P3PDB_ASSIGN_OR_RETURN(Cond inner, ParseOr());
      P3PDB_RETURN_IF_ERROR(Expect(')'));
      Cond cond;
      cond.kind = CondKind::kNot;
      cond.children.push_back(std::move(inner));
      return cond;
    }
    if (Peek() == '(') {
      Advance();
      P3PDB_ASSIGN_OR_RETURN(Cond inner, ParseOr());
      P3PDB_RETURN_IF_ERROR(Expect(')'));
      return inner;
    }
    if (Peek() == '@') {
      Advance();
      Cond cond;
      cond.kind = CondKind::kAttrEquals;
      P3PDB_ASSIGN_OR_RETURN(cond.attr_name, ParseName());
      Skip();
      P3PDB_RETURN_IF_ERROR(Expect('='));
      P3PDB_ASSIGN_OR_RETURN(cond.attr_value, ParseString());
      return cond;
    }
    // A relative child step with optional predicates.
    Cond cond;
    cond.kind = CondKind::kPathExists;
    cond.step = std::make_unique<Step>();
    P3PDB_ASSIGN_OR_RETURN(cond.step->name, ParseName());
    Skip();
    while (Peek() == '[') {
      Advance();
      P3PDB_ASSIGN_OR_RETURN(Cond pred, ParseOr());
      cond.step->predicates.push_back(std::move(pred));
      P3PDB_RETURN_IF_ERROR(Expect(']'));
      Skip();
    }
    return cond;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // open ParseOr levels
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  Parser parser(text);
  return parser.Parse();
}

}  // namespace p3pdb::xquery
