package fleet

import (
	"strings"
	"testing"
)

func TestRunTask(t *testing.T) {
	var out strings.Builder
	if err := RunTask(&out, "hh", RunOptions{Leaves: 2, Seconds: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\ndone: ") {
		t.Fatalf("no done line in:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "\n["); n > runMaxPrinted {
		t.Fatalf("%d reports echoed, cap is %d", n, runMaxPrinted)
	}

	for _, opts := range []RunOptions{
		{Leaves: 2, Seconds: 0},
		{Leaves: 2, Seconds: -1},
		{Leaves: 0, Seconds: 1},
		{Leaves: -1, Seconds: 1},
	} {
		var out strings.Builder
		if err := RunTask(&out, "hh", opts); err == nil {
			t.Errorf("%+v: accepted", opts)
		}
		if out.Len() != 0 {
			t.Errorf("%+v: rejected run wrote %q", opts, out.String())
		}
	}
}
