#pragma once

/**
 * @file
 * Text and token predicates shared by every layer of snoop_analyze:
 * prefix and basename tests for path scoping, the fixture opt-in
 * convention, word-boundary search for the line rules, the inline
 * `// snoop-lint: <marker>` window, and punct/identifier token tests
 * for the parser, CFG builder and passes.
 */

#include <cstddef>
#include <cstring>
#include <string>

#include "lint/lexer.hh"

namespace snoop::lint {

inline bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

/** Last '/'-separated component of @p path. */
inline std::string
baseName(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** True when @p file is a bad_/good_ fixture of @p stem (a rule id
 * spelled with underscores; empty for any rule): the basename opts
 * it into that rule's scope wherever it lives. */
inline bool
isFixtureOf(const std::string &file, const std::string &stem)
{
    const std::string base = baseName(file);
    return startsWith(base, "bad_" + stem) ||
        startsWith(base, "good_" + stem);
}

inline bool
isWordChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_';
}

/** Word-boundary search: @p needle not preceded/followed by
 * identifier chars. Non-identifier chars inside the needle (e.g.
 * "std::rand") do not affect the boundary check. */
inline bool
containsWord(const std::string &line, const char *needle)
{
    size_t len = std::strlen(needle);
    for (size_t pos = line.find(needle); pos != std::string::npos;
         pos = line.find(needle, pos + 1)) {
        size_t end = pos + len;
        if ((pos == 0 || !isWordChar(line[pos - 1])) &&
            (end >= line.size() || !isWordChar(line[end])))
            return true;
    }
    return false;
}

/** True when `snoop-lint: <marker>` appears on 1-based @p line or
 * the three raw lines above it: the opt-out window of every rule. */
inline bool
markerNearby(const LexedFile &lexed, size_t line, const char *marker)
{
    const std::string needle = std::string("snoop-lint: ") + marker;
    for (size_t l = line > 3 ? line - 3 : 1;
         l <= line && l <= lexed.lines.size(); ++l)
        if (lexed.lines[l - 1].find(needle) != std::string::npos)
            return true;
    return false;
}

inline bool
isPunct(const Token &t, const char *p)
{
    return t.kind == TokenKind::Punct && t.text == p;
}

inline bool
isIdent(const Token &t, const char *name)
{
    return t.kind == TokenKind::Identifier && t.text == name;
}

} // namespace snoop::lint
