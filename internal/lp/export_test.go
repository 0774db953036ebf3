package lp

import "sync"

// SolveDense solves p with the dense pivot oracle of lp_test.go in place
// of the sparse pivot.
func SolveDense(p *Problem) (*Solution, error) { return solveDense(p) }

// SameSolution reports whether two solves ended bit for bit alike.
func SameSolution(a *Solution, aerr error, b *Solution, berr error) bool {
	return sameSolution(a, aerr, b, berr)
}

// CaptureSolves hands f a copy of every problem Solve is called on, from
// any goroutine, until stop is called.
func CaptureSolves(f func(*Problem)) (stop func()) {
	var mu sync.Mutex
	testSolve = func(p *Problem) {
		c := cloneProblem(p)
		mu.Lock()
		defer mu.Unlock()
		f(c)
	}
	return func() { testSolve = nil }
}
