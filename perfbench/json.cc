#include "json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace msamp::perfbench::json {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  std::optional<Value> document(std::string* error) {
    Value v;
    if (!value(&v, 0)) {
      if (error != nullptr) *error = why_ + " at offset " + std::to_string(i_);
      return std::nullopt;
    }
    ws();
    if (i_ != s_.size()) {
      if (error != nullptr) *error = "trailing data at offset " + std::to_string(i_);
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool fail(const char* why) {
    why_ = why;
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return fail("bad literal");
    i_ += word.size();
    return true;
  }

  bool value(Value* v, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    ws();
    if (i_ >= s_.size()) return fail("unexpected end");
    const char c = s_[i_];
    if (c == '{') return object(v, depth);
    if (c == '[') return array(v, depth);
    if (c == '"') {
      v->kind = Value::Kind::kString;
      return string(&v->string);
    }
    if (c == 't' || c == 'f') {
      v->kind = Value::Kind::kBool;
      v->boolean = c == 't';
      return literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') return literal("null");
    return num(v);
  }

  bool num(Value* v) {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    const std::string tok(s_.substr(start, i_ - start));
    char* end = nullptr;
    v->kind = Value::Kind::kNumber;
    v->number = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end != tok.c_str() + tok.size()) {
      return fail("bad number");
    }
    return true;
  }

  bool string(std::string* out) {
    ++i_;  // opening quote
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (static_cast<unsigned char>(c) < 0x20) return fail("control char");
      if (c == '\\') {
        if (i_ >= s_.size()) return fail("unexpected end");
        const char e = s_[i_++];
        switch (e) {
          case '"': case '\\': case '/': c = e; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            // The benchmark's files are ASCII; keep \u escapes of the
            // ASCII range and reject the rest rather than mis-decode them.
            if (i_ + 4 > s_.size()) return fail("bad \\u escape");
            const long code =
                std::strtol(std::string(s_.substr(i_, 4)).c_str(), nullptr, 16);
            if (code <= 0 || code > 0x7f) return fail("non-ASCII \\u escape");
            c = static_cast<char>(code);
            i_ += 4;
            break;
          }
          default:
            return fail("bad escape");
        }
      }
      out->push_back(c);
    }
    if (i_ >= s_.size()) return fail("unterminated string");
    ++i_;
    return true;
  }

  bool array(Value* v, int depth) {
    v->kind = Value::Kind::kArray;
    ++i_;
    ws();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    while (true) {
      Value item;
      if (!value(&item, depth + 1)) return false;
      v->array.push_back(std::move(item));
      ws();
      if (i_ >= s_.size()) return fail("unexpected end");
      if (s_[i_] == ']') {
        ++i_;
        return true;
      }
      if (s_[i_] != ',') return fail("expected , or ]");
      ++i_;
    }
  }

  bool object(Value* v, int depth) {
    v->kind = Value::Kind::kObject;
    ++i_;
    ws();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    while (true) {
      ws();
      if (i_ >= s_.size() || s_[i_] != '"') return fail("expected key");
      std::string key;
      if (!string(&key)) return false;
      ws();
      if (i_ >= s_.size() || s_[i_] != ':') return fail("expected :");
      ++i_;
      Value item;
      if (!value(&item, depth + 1)) return false;
      v->object[key] = std::move(item);
      ws();
      if (i_ >= s_.size()) return fail("unexpected end");
      if (s_[i_] == '}') {
        ++i_;
        return true;
      }
      if (s_[i_] != ',') return fail("expected , or }");
      ++i_;
    }
  }

  std::string_view s_;
  std::size_t i_ = 0;
  std::string why_;
};

}  // namespace

const Value* Value::get(const std::string& key) const {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).document(error);
}

std::optional<Value> parse_file(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), error);
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace msamp::perfbench::json
