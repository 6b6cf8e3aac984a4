package hybriddb

import "hybriddb/internal/altarch"

// ArchComparison is one operating point of the three-architecture comparison
// of the paper's introduction: fully centralized, fully distributed, and the
// hybrid under its best strategy.
type ArchComparison = altarch.Comparison

// DefaultLockTimeout is the lock-wait timeout the fully distributed
// architecture uses to break cross-site deadlocks.
const DefaultLockTimeout = altarch.DefaultLockTimeout

// CompareArchitectures runs centralized, distributed, and the hybrid (under
// its best strategy) on the shared configuration — the paper's motivating
// comparison.
func CompareArchitectures(cfg Config, lockTimeout float64) (ArchComparison, error) {
	return altarch.CompareArchitectures(cfg, lockTimeout)
}

// LocalitySweep runs CompareArchitectures across class A fractions,
// exposing the [DIAS87] crossover between the pure architectures.
func LocalitySweep(cfg Config, pLocals []float64, lockTimeout float64) ([]ArchComparison, error) {
	return altarch.LocalitySweep(cfg, pLocals, lockTimeout)
}
