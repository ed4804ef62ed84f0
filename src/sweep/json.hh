/**
 * @file
 * Minimal JSON reader for the sweep subsystem: grid files, journal
 * lines and merged reports. Deliberately tiny — objects are sorted
 * maps (deterministic iteration for fingerprints and reports),
 * numbers are doubles, and parse errors come back as a message
 * instead of an exception so callers can wrap them in fatal() with
 * file/line context. The writer side stays with json::quote /
 * json::number from system/experiment.hh.
 */

#ifndef TOKENCMP_SWEEP_JSON_HH
#define TOKENCMP_SWEEP_JSON_HH

#include <map>
#include <string>
#include <vector>

namespace tokencmp::minijson {

/** One parsed JSON value (a tagged union over the six kinds). */
struct Value
{
    enum class Kind : unsigned char {
        Null, Bool, Number, String, Array, Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> arr;
    std::map<std::string, Value> obj;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Member `key` as a string/number/bool, or `def` when absent.
     *  A present member of the wrong kind returns `def` too — callers
     *  that must diagnose types use find() directly. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    double getNumber(const std::string &key, double def = 0.0) const;
};

/**
 * Parse one JSON document. On failure returns a Null value and sets
 * `*err` to a one-line diagnostic with a byte offset; on success
 * clears `*err`. Trailing garbage after the document, and arrays or
 * objects nested more than 256 deep, are errors.
 */
Value parse(const std::string &text, std::string *err);

/** Read and parse a whole file; unreadable files report through
 *  `*err` like a parse failure. */
Value parseFile(const std::string &path, std::string *err);

} // namespace tokencmp::minijson

#endif // TOKENCMP_SWEEP_JSON_HH
