package geo

import "math"

// NormalizeDeg wraps an angle in degrees to the half-open interval
// (-180, 180]. NaN is passed through unchanged.
func NormalizeDeg(a float64) float64 {
	if -180 < a && a <= 180 {
		return a // math.Mod(a, 360) is a itself for |a| < 360, ±0 included
	}
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return a
	}
	a = math.Mod(a, 360)
	switch {
	case a > 180:
		return a - 360
	case a <= -180:
		return a + 360
	default:
		return a
	}
}

// AngleDiffDeg returns the signed smallest rotation from angle b to angle a
// in degrees, normalised to (-180, 180]. A positive result means a lies
// counter-clockwise of b.
func AngleDiffDeg(a, b float64) float64 {
	return NormalizeDeg(a - b)
}

// KmhToMps converts a speed in km/h to m/s.
func KmhToMps(kmh float64) float64 { return kmh / 3.6 }

// MpsToKmh converts a speed in m/s to km/h.
func MpsToKmh(mps float64) float64 { return mps * 3.6 }

// KmToM converts kilometres to metres.
func KmToM(km float64) float64 { return km * 1000 }

// MToKm converts metres to kilometres.
func MToKm(m float64) float64 { return m / 1000 }
