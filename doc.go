// Package memlife reproduces "Aging-aware Lifetime Enhancement for
// Memristor-based Neuromorphic Computing" (S. Zhang, G. L. Zhang,
// B. Li, H. Li, U. Schlichtmann — DATE 2019) as a pure-Go simulation
// stack.
//
// The implementation lives under internal/:
//
//   - tensor, dataset, nn, train — the software-training substrate
//     (dense/conv networks, SGD, the paper's skewed regularizer).
//   - device, aging, crossbar — the memristor hardware model
//     (quantized programmable resistances, Arrhenius aging of the
//     valid range, crossbar arrays with representative tracing).
//   - mapping, tuning, lifetime — the paper's deployment flow
//     (eq. (4) weight mapping with aging-aware range selection,
//     sign-based online tuning, lifetime measurement).
//   - analysis, experiments — reproduction drivers for every table
//     and figure of the paper's evaluation.
//
// The cmd/memlife CLI runs any experiment; the examples/ directory
// holds runnable walkthroughs; perfbench/ (a module of its own) is the
// end-to-end benchmark. See README.md, DESIGN.md and EXPERIMENTS.md.
package memlife
