#include "core/absorption_pre.hpp"

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/worker_pool.hpp"

namespace quclear {

std::vector<AbsorbedObservable>
absorbObservables(const ExtractionResult &extraction,
                  const std::vector<PauliString> &observables,
                  uint32_t threads)
{
    const uint32_t n = extraction.optimized.numQubits();
    WorkerPool pool(threads);

    // O' = U_CL~ O U_CL = E O E~, which is exactly the conjugator
    // tableau's map (U_CL = E~). Each chunk conjugates its observables
    // as one batch (one tableau transpose per chunk), then builds each
    // observable's basis change and measured-qubit list into its own
    // slot.
    std::vector<PauliString> transformed(observables);
    std::vector<AbsorbedObservable> absorbed(observables.size());
    pool.parallelFor(observables.size(), [&](size_t begin, size_t end) {
        extraction.conjugator.conjugateBatch(
            std::span(transformed).subspan(begin, end - begin));
        for (size_t i = begin; i < end; ++i) {
            AbsorbedObservable &a = absorbed[i];
            a.original = observables[i];
            a.transformed = std::move(transformed[i]);
            a.sign = a.transformed.sign();

            a.basisChange = QuantumCircuit(n);
            // Word-level support walk: identity columns are skipped 64
            // at a time instead of probing every qubit.
            a.transformed.forEachSupport([&](uint32_t q, PauliOp op) {
                switch (op) {
                  case PauliOp::X:
                    a.basisChange.h(q);
                    break;
                  case PauliOp::Y:
                    a.basisChange.sdg(q);
                    a.basisChange.h(q);
                    break;
                  default:
                    break;
                }
                a.measuredQubits.push_back(q);
            });
        }
    });
    return absorbed;
}

QuantumCircuit
measurementCircuit(const ExtractionResult &extraction,
                   const AbsorbedObservable &obs)
{
    QuantumCircuit qc = extraction.optimized;
    qc.appendCircuit(obs.basisChange);
    return qc;
}

ProbabilityAbsorption
absorbProbabilities(const ExtractionResult &extraction)
{
    ProbabilityAbsorption pa;
    pa.reduction = reduceToHCnot(extraction.extractedClifford);
    assert(pa.reduction.valid &&
           "Clifford tail lacks the H + CNOT-network structure (Prop. 1)");

    pa.deviceCircuit = extraction.optimized;
    for (uint32_t q = 0; q < pa.deviceCircuit.numQubits(); ++q)
        if (pa.reduction.hLayer[q])
            pa.deviceCircuit.h(q);
    return pa;
}

} // namespace quclear
