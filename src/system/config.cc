#include "system/config.hh"

#include "sim/logging.hh"

namespace tokencmp {

namespace {

/** One row per Protocol, in enum order: protocolInfo() indexes by
 *  value (tests/test_experiment.cc checks the order). */
const ProtocolInfo kProtocols[] = {
    {Protocol::DirectoryCMP, "DirectoryCMP", "directory",
     Family::Directory, nullptr},
    {Protocol::DirectoryCMPZero, "DirectoryCMP-zero", "directory-zero",
     Family::Directory, nullptr},
    {Protocol::TokenArb0, "TokenCMP-arb0", nullptr, Family::Token, "arb0"},
    {Protocol::TokenDst0, "TokenCMP-dst0", nullptr, Family::Token, "dst0"},
    {Protocol::TokenDst4, "TokenCMP-dst4", nullptr, Family::Token, "dst4"},
    {Protocol::TokenDst1, "TokenCMP-dst1", nullptr, Family::Token, "dst1"},
    {Protocol::TokenDst1Pred, "TokenCMP-dst1-pred", nullptr, Family::Token,
     "dst1-pred"},
    {Protocol::TokenDst1Filt, "TokenCMP-dst1-filt", nullptr, Family::Token,
     "dst1-filt"},
    {Protocol::PerfectL2, "PerfectL2", "perfect", Family::Perfect, nullptr},
    // Tokens within each CMP run hier's intra-CMP policy.
    {Protocol::HierCMP, "HierCMP", "hier", Family::Hier, "arb4"},
};

void
checkTableGeometry(const char *what, unsigned entries, unsigned ways)
{
    if (ways == 0 || entries == 0 || entries % ways != 0) {
        fatal("%s table geometry %u entries / %u ways is invalid "
              "(entries must be a nonzero multiple of ways)",
              what, entries, ways);
    }
}

} // namespace

const ProtocolInfo &
protocolInfo(Protocol p)
{
    return kProtocols[unsigned(p)];
}

const ProtocolInfo *
findProtocol(const std::string &key)
{
    for (const ProtocolInfo &row : kProtocols) {
        if (row.key != nullptr && key == row.key)
            return &row;
    }
    return nullptr;
}

const char *
protocolName(Protocol p)
{
    return protocolInfo(p).name;
}

bool
isToken(Protocol p)
{
    return protocolInfo(p).family == Family::Token;
}

std::vector<Protocol>
allProtocols()
{
    std::vector<Protocol> out;
    for (const ProtocolInfo &row : kProtocols)
        out.push_back(row.protocol);
    return out;
}

std::string
SystemConfig::displayName() const
{
    if (!policyName.empty() && isToken(protocol))
        return "TokenCMP-" + policyName;
    return protocolName(protocol);
}

void
SystemConfig::validate() const
{
    if (!policyName.empty() && !isToken(protocol)) {
        fatal("policyName '%s' requires a TokenCMP protocol "
              "(configured protocol is %s)",
              policyName.c_str(), protocolName(protocol));
    }

    // Per-policy knobs: validated unconditionally (the defaults are
    // valid), so a sweep that mutates them cannot smuggle a broken
    // geometry into a later token run.
    checkTableGeometry("contention predictor", token.contentionEntries,
                       token.contentionWays);
    checkTableGeometry("CMP-owner predictor", token.cmpPredEntries,
                       token.cmpPredWays);
    if (token.bwBusyUtil < 0.0 || token.bwBusyUtil > 1.0) {
        fatal("bw-adapt busy-utilization threshold %f out of range "
              "[0, 1]", token.bwBusyUtil);
    }

    if (!workloadName.empty())
        workloadParams.validate(workloadName);
}

} // namespace tokencmp
