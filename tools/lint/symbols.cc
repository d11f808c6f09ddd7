#include "lint/symbols.hh"

namespace snoop::lint {

namespace {

bool
textReturnsExpected(const std::string &returnText)
{
    return returnText.find("Expected") != std::string::npos;
}

} // namespace

SymbolIndex
SymbolIndex::build(const FileSet &files)
{
    SymbolIndex idx;
    for (const auto &[path, lexed] : files) {
        ParsedFile parsed = parseFile(lexed);
        for (const FunctionDef &def : parsed.functions) {
            idx.byName_[def.name].push_back(idx.functions_.size());
            idx.functions_.push_back({path, def});
            auto &[sawExpected, sawOther] = idx.returns_[def.name];
            (textReturnsExpected(def.returnText) ? sawExpected
                                                 : sawOther) = true;
        }
        for (const FunctionDecl &decl : parsed.declarations) {
            auto &[sawExpected, sawOther] = idx.returns_[decl.name];
            (textReturnsExpected(decl.returnText) ? sawExpected
                                                  : sawOther) = true;
        }
        idx.parsedByFile_.emplace(path, std::move(parsed));
    }
    return idx;
}

std::vector<const IndexedFunction *>
SymbolIndex::definitionsOf(const std::string &name) const
{
    std::vector<const IndexedFunction *> out;
    auto it = byName_.find(name);
    if (it == byName_.end())
        return out;
    out.reserve(it->second.size());
    for (size_t i : it->second)
        out.push_back(&functions_[i]);
    return out;
}

bool
SymbolIndex::returnsExpected(const std::string &name) const
{
    auto it = returns_.find(name);
    if (it == returns_.end())
        return false;
    const auto &[sawExpected, sawOther] = it->second;
    return sawExpected && !sawOther;
}

bool
SymbolIndex::isKnownFunction(const std::string &name) const
{
    return byName_.count(name) > 0 || returns_.count(name) > 0;
}

const ParsedFile &
SymbolIndex::parsed(const std::string &file) const
{
    static const ParsedFile kEmpty;
    auto it = parsedByFile_.find(file);
    return it == parsedByFile_.end() ? kEmpty : it->second;
}

} // namespace snoop::lint
