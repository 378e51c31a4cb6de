// Package mobility provides the user-movement model that drives the
// simulation: a speed-dependent turning walk (the mechanism behind the
// paper's Fig. 7 — walking users change direction easily, fast users do
// not). Walkers are stateful, per-terminal objects advanced in discrete
// time steps; all randomness comes from the caller-supplied RNG stream,
// so runs are deterministic per seed.
//
// Entry points: the Model interface (what the GPS receiver samples) and
// NewTurningWalk.
package mobility
