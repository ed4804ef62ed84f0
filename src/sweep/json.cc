#include "sweep/json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tokencmp::minijson {

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
}

std::string
Value::getString(const std::string &key, const std::string &def) const
{
    const Value *v = find(key);
    return (v && v->isString()) ? v->str : def;
}

double
Value::getNumber(const std::string &key, double def) const
{
    const Value *v = find(key);
    return (v && v->isNumber()) ? v->number : def;
}

namespace {

/** Recursive-descent parser over a byte buffer. */
class Parser
{
    /** Nesting cap: each level is a few stack frames, so an unbounded
     *  depth lets a hostile file overflow the stack. */
    static constexpr unsigned kMaxDepth = 256;

  public:
    Parser(const std::string &text, std::string *err)
        : _s(text), _err(err)
    {
    }

    Value
    document()
    {
        Value v = value();
        if (!failed()) {
            skipWs();
            if (_pos != _s.size())
                fail("trailing characters after JSON document");
        }
        return failed() ? Value{} : v;
    }

  private:
    bool failed() const { return !_err->empty(); }

    void
    fail(const char *what)
    {
        if (failed())
            return;
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s (at byte %zu)", what,
                      _pos);
        *_err = buf;
    }

    void
    skipWs()
    {
        while (_pos < _s.size() &&
               (_s[_pos] == ' ' || _s[_pos] == '\t' ||
                _s[_pos] == '\n' || _s[_pos] == '\r')) {
            ++_pos;
        }
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (_s.compare(_pos, n, word) != 0) {
            fail("invalid literal");
            return false;
        }
        _pos += n;
        return true;
    }

    Value
    value()
    {
        skipWs();
        if (_pos >= _s.size()) {
            fail("unexpected end of input");
            return {};
        }
        const char c = _s[_pos];
        switch (c) {
          case '{':
          case '[': {
            if (_depth == kMaxDepth) {
                fail("nesting deeper than 256 levels");
                return {};
            }
            ++_depth;
            Value v = c == '{' ? object() : array();
            --_depth;
            return v;
          }
          case '"': return string();
          case 't': {
            Value v;
            if (literal("true")) {
                v.kind = Value::Kind::Bool;
                v.boolean = true;
            }
            return v;
          }
          case 'f': {
            Value v;
            if (literal("false"))
                v.kind = Value::Kind::Bool;
            return v;
          }
          case 'n': {
            literal("null");
            return {};
          }
          default:
            return number();
        }
    }

    Value
    object()
    {
        Value v;
        v.kind = Value::Kind::Object;
        ++_pos;  // '{'
        skipWs();
        if (_pos < _s.size() && _s[_pos] == '}') {
            ++_pos;
            return v;
        }
        while (true) {
            skipWs();
            if (_pos >= _s.size() || _s[_pos] != '"') {
                fail("expected object key string");
                return {};
            }
            Value key = string();
            if (failed())
                return {};
            skipWs();
            if (_pos >= _s.size() || _s[_pos] != ':') {
                fail("expected ':' after object key");
                return {};
            }
            ++_pos;
            Value member = value();
            if (failed())
                return {};
            v.obj[key.str] = std::move(member);
            skipWs();
            if (_pos < _s.size() && _s[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_pos < _s.size() && _s[_pos] == '}') {
                ++_pos;
                return v;
            }
            fail("expected ',' or '}' in object");
            return {};
        }
    }

    Value
    array()
    {
        Value v;
        v.kind = Value::Kind::Array;
        ++_pos;  // '['
        skipWs();
        if (_pos < _s.size() && _s[_pos] == ']') {
            ++_pos;
            return v;
        }
        while (true) {
            Value item = value();
            if (failed())
                return {};
            v.arr.push_back(std::move(item));
            skipWs();
            if (_pos < _s.size() && _s[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_pos < _s.size() && _s[_pos] == ']') {
                ++_pos;
                return v;
            }
            fail("expected ',' or ']' in array");
            return {};
        }
    }

    Value
    string()
    {
        Value v;
        v.kind = Value::Kind::String;
        ++_pos;  // opening quote
        while (_pos < _s.size()) {
            const char c = _s[_pos];
            if (c == '"') {
                ++_pos;
                return v;
            }
            if (c == '\\') {
                if (_pos + 1 >= _s.size())
                    break;
                const char esc = _s[_pos + 1];
                _pos += 2;
                switch (esc) {
                  case '"': v.str += '"'; break;
                  case '\\': v.str += '\\'; break;
                  case '/': v.str += '/'; break;
                  case 'b': v.str += '\b'; break;
                  case 'f': v.str += '\f'; break;
                  case 'n': v.str += '\n'; break;
                  case 'r': v.str += '\r'; break;
                  case 't': v.str += '\t'; break;
                  case 'u': {
                    if (_pos + 4 > _s.size()) {
                        fail("truncated \\u escape");
                        return {};
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = _s[_pos + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= unsigned(h - 'A' + 10);
                        else {
                            fail("invalid \\u escape");
                            return {};
                        }
                    }
                    _pos += 4;
                    // The writer side only ever emits \u00xx control
                    // escapes; decode the BMP as UTF-8 for
                    // completeness.
                    if (code < 0x80) {
                        v.str += char(code);
                    } else if (code < 0x800) {
                        v.str += char(0xc0 | (code >> 6));
                        v.str += char(0x80 | (code & 0x3f));
                    } else {
                        v.str += char(0xe0 | (code >> 12));
                        v.str += char(0x80 | ((code >> 6) & 0x3f));
                        v.str += char(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    fail("invalid escape character");
                    return {};
                }
                continue;
            }
            v.str += c;
            ++_pos;
        }
        fail("unterminated string");
        return {};
    }

    Value
    number()
    {
        const char *start = _s.c_str() + _pos;
        char *end = nullptr;
        const double d = std::strtod(start, &end);
        if (end == start) {
            fail("invalid value");
            return {};
        }
        _pos += std::size_t(end - start);
        Value v;
        v.kind = Value::Kind::Number;
        v.number = d;
        return v;
    }

    const std::string &_s;
    std::string *_err;
    std::size_t _pos = 0;
    unsigned _depth = 0;  //!< arrays/objects open at _pos
};

} // namespace

Value
parse(const std::string &text, std::string *err)
{
    err->clear();
    return Parser(text, err).document();
}

Value
parseFile(const std::string &path, std::string *err)
{
    err->clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        *err = "cannot open " + path;
        return {};
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return parse(text, err);
}

} // namespace tokencmp::minijson
