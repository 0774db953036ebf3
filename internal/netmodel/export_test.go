package netmodel

// PathsReference exposes the frozen path oracle to the external tests.
var PathsReference = pathsReference

// Scale returns k*r.
func (r Vector) Scale(k float64) Vector {
	for i := range r {
		r[i] *= k
	}
	return r
}
