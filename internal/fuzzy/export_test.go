package fuzzy

// Locate exposes SurfaceAxis.locate to the external tests, which build
// the paper's surfaces through internal/facs.
func (a *SurfaceAxis) Locate(x float64) (int, float64) { return a.locate(x) }
