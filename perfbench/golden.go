package main

// goldens pins each workload's one-day outcome at defaultSeed: the
// DecisionHash over every decision and commit, and the counts the
// contested regime rests on. A mismatch means the program now decides
// differently.
var goldens = map[string]outcome{
	"city-guard":   {hash: 0xc8c667f2372c46ff, requested: 112993, accepted: 102789, handoffs: 16223, dropped: 43},
	"city-facs":    {hash: 0x6eac7b358aee6c4b, requested: 112993, accepted: 73116, handoffs: 11399, dropped: 2939},
	"district-scc": {hash: 0x66f6e7200590c510, requested: 14650, accepted: 9885, handoffs: 1478, dropped: 411},
}
