// The paper's Fig. 3 chains built state by state through the oracle's
// named-state ChainBuilder — the reference the library's batched assembler
// (reliability::assemble_clr_chain_batch) and row-0 kernel are tested
// against.
#pragma once

#include "oracle/chain.hpp"
#include "reliability/clr_chain_builder.hpp"

namespace clrearly::reliability {

/// The Fig. 3 chain for `params` as a named-state markov::ChainBuilder
/// assembly with full input validation: the timing chain of Fig. 3a
/// (single absorbing state End, index 0) or, when `functional`, the
/// functional chain of Fig. 3b (absorbing states Error and noError, at
/// kAbsorbError and kAbsorbNoError). Its matrices equal
/// assemble_clr_chain_batch's lanes bit for bit, and its row-0 accessors
/// equal the kernel's results bit for bit.
markov::AbsorbingChain build_chain_reference(const ClrChainParams& params,
                                             bool functional);

}  // namespace clrearly::reliability
