package scc

// DecideHexLookups returns how many HexAt calls l's decisions made, for
// the package's external tests.
func DecideHexLookups(l *Ledger) int64 { return l.classStats.decideHexes }
