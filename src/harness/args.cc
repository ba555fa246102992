#include "harness/args.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"

namespace sentinel::harness {

Args::Args(int argc, char **argv, const std::vector<std::string> &keys,
           std::size_t operands, const std::vector<std::string> &switches,
           const std::string &cmd, int first)
{
    std::string name = cmd;
    if (name.empty() && argc > 0) {
        name = argv[0];
        name.erase(0, name.rfind('/') + 1);
    }
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (operands_.size() == operands)
                throw ConfigError(strprintf(
                    "config: %s takes %zu operand(s) at most, got '%s'",
                    name.c_str(), operands, arg.c_str()));
            operands_.push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string key = arg.substr(2, eq - 2);
        const bool is_switch = std::ranges::count(switches, key) > 0;
        if (!is_switch && std::ranges::count(keys, key) == 0)
            throw ConfigError(strprintf("config: %s does not take --%s",
                                        name.c_str(), key.c_str()));
        if (is_switch && eq != std::string::npos)
            throw ConfigError(
                strprintf("config: --%s takes no value", key.c_str()));
        if (is_switch)
            values_[key] = "";
        else if (eq != std::string::npos)
            values_[key] = arg.substr(eq + 1);
        else if (i + 1 < argc)
            values_[key] = argv[++i];
        else
            throw ConfigError(
                strprintf("config: --%s wants a value", key.c_str()));
    }
}

std::uint64_t
Args::getU64(const std::string &key, std::uint64_t dflt) const
{
    if (!has(key))
        return dflt;
    const std::string v = get(key, "");
    if (std::optional<std::uint64_t> out = parseSeed(v))
        return *out;
    throw ConfigError(strprintf("config: --%s expects a number, got '%s'",
                                key.c_str(), v.c_str()));
}

std::ofstream
Args::openOutput(const std::string &key, const std::string &dflt) const
{
    std::ofstream os;
    const std::string path = get(key, dflt);
    if (!path.empty()) {
        os.open(path, std::ios::binary);
        if (!os)
            SENTINEL_FATAL("could not write '%s'", path.c_str());
    }
    return os;
}

void
closeOutput(std::ofstream &os, const std::string &path)
{
    os.close();
    if (!os)
        SENTINEL_FATAL("could not write '%s'", path.c_str());
}

int
reportError()
{
    try {
        throw;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
    }
    return 1;
}

} // namespace sentinel::harness
