package netmodel

// PathsReference exposes the frozen path oracle to the external tests.
var PathsReference = pathsReference

// Scale returns k*r.
func (r Resources) Scale(k float64) Resources {
	c := make(Resources, len(r))
	for name, v := range r {
		c[name] = v * k
	}
	return c
}
