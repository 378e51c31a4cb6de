package facs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// rootExports is the root package's exported API, sorted. A name
// belongs here when an example, a binary or a root test uses it, or
// when a kept name needs it to be used: a type in a kept signature, an
// option constructor, a named value of a kept type.
var rootExports = []string{
	"AblationBaselines", "AblationDefuzzifier", "AblationGPSNoise",
	"AblationHandoffPriority", "AblationQueueing", "AblationSCC",
	"AblationThreshold", "Accept", "AdmissionRequest", "AllAblations",
	"AllFigures", "BaseStation", "BatchAdmissionConfig",
	"BatchAdmissionResult", "CSV", "Call", "Chart", "ChartOptions",
	"Class", "CompiledSystem", "CompleteSharing", "Controller",
	"DecideAll", "Decision", "DefaultAcceptThreshold",
	"DefaultCapacityBU", "DefaultCompiledSystem", "DefaultParams",
	"DefaultTrafficMix", "DefaultWorkers", "DemandDelta",
	"DemandExchangingController", "DemandRow", "Estimate", "Evaluation",
	"FACSFactory", "Figure", "Figure10", "Figure7", "Figure8", "Figure9",
	"FigureConfig", "Grade", "GradeAccept", "GradeNRNA", "GradeReject",
	"GradeWeakAccept", "GradeWeakReject", "GuardChannel",
	"HandoffControlled", "HandoffPhysical", "HandoffPolicy", "Hex",
	"MetroBatch", "MetroSharded", "MetroSnapshotFile", "MetropolisConfig",
	"MetropolisMode", "MetropolisResult", "MultiCellConfig",
	"MultiCellResult", "MustSystem", "Network", "NetworkConfig",
	"NewCompiledSystem", "NewGuardChannel", "NewNetwork", "NewSCC",
	"NewSCCLedger", "NewShardedEngine", "NewSystem", "NewThresholdPolicy",
	"Observation", "Params", "PartitionBlocks", "PartitionRoundRobin",
	"Pin", "Point", "Reject", "RunBatchAdmission", "RunMetropolis",
	"RunMultiCell", "RunMultiCellSeeds", "RunSingleCell",
	"RunSingleCellSeeds", "SCC", "SCCConfig", "SCCFactory", "SCCLedger",
	"SCCLedgerStats", "SCCReservationFull", "SCCReservationMode",
	"SCCReservationWeighted", "Series", "ServeResponse", "ShardHandoff",
	"ShardHandoffResult", "ShardPartition", "ShardPlannerConfig",
	"ShardView", "ShardedEngine", "ShardedEngineConfig", "ShardedStats",
	"SingleCellConfig", "SingleCellResult", "SingleShardView", "Span",
	"System", "SystemOption", "Table", "Text", "ThresholdPolicy",
	"TrafficMix", "Video", "Voice", "WithAcceptThreshold",
	"WithHandoffBias", "WithParams",
}

// TestRootExports pins the root package's exported names: it parses
// the package's non-test .go files and compares every exported
// top-level type, function, variable and constant with rootExports, so
// adding or removing a root name is a deliberate edit of that list.
func TestRootExports(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["facs"]
	if !ok {
		t.Fatal("no package facs in the repository root")
	}
	var got []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.IsSorted(rootExports) {
		t.Fatal("rootExports is not sorted")
	}
	for _, n := range got {
		if _, found := slices.BinarySearch(rootExports, n); !found {
			t.Errorf("root name %s is not in rootExports", n)
		}
	}
	for _, n := range rootExports {
		if _, found := slices.BinarySearch(got, n); !found {
			t.Errorf("rootExports lists %s, which the root package does not export", n)
		}
	}
	if t.Failed() {
		t.Logf("exported names:\n\t%q", got)
	}
}
