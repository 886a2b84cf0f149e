//go:build race

// Package race reports whether the race detector is enabled, so tests with
// allocation budgets can skip themselves: race instrumentation allocates on
// its own, which makes allocation counts meaningless. The budgets
// are still enforced in CI by the non-race `make alloc-budget` step.
package race

// Enabled is true when the binary was built with -race.
const Enabled = true
