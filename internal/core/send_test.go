package core

import (
	"testing"

	"farm/internal/dataplane"
)

// sendMachine sends lists of every kind, then writes what they hold.
const sendMachine = `
struct Wrap { long tag; }
machine S {
  place all;
  poll p = Poll { .ival = 10, .what = port ANY };
  list nums; list nested; list withMap; list withStruct; list withRow;
  map m; Wrap w;
  state s {
    util (res) { return 1; }
    when (p as recs) do {
      nums = [1, 2.5, "x", true];
      nested = [nums, [3]];
      m = map_set(m, "k", 1);
      withMap = [m, 1];
      w = Wrap { .tag = 1 };
      withStruct = [w];
      withRow = [list_get(recs, 0)];
      send nums to harvester;
      send nested to harvester;
      send withMap to harvester;
      send withStruct to harvester;
      send withRow to harvester;
      send recs to harvester;
      m = map_set(m, "k", 2);
      w.tag = 2;
      PortStats r = list_get(withRow, 0);
      r.port = 99;
    }
  }
}
`

// TestSendSharesOnlyWhatNothingWrites: a sent list of scalars and
// strings (or of such lists) reaches the host as the seed's own list,
// uncopied; a sent list holding a map, a struct or a polled record is a
// copy, which the seed's later writes to what the list holds do not
// reach; a sent poll batch is a list of its own.
func TestSendSharesOnlyWhatNothingWrites(t *testing.T) {
	cm := parityCompile(t, sendMachine, "S")
	host := newMockHost()
	r, err := newParityRunner("register", cm, nil, host)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	b := NewPortStatsBatch([]int{4, 5}, []dataplane.PortStats{{TxBytes: 10}, {TxBytes: 20}}, nil, nil)
	if err := r.HandleTrigger("p", b); err != nil {
		t.Fatal(err)
	}
	if len(host.sent) != 6 {
		t.Fatalf("%d sends, want 6", len(host.sent))
	}
	for i, name := range []string{"nums", "nested"} {
		own, _ := r.Var(name)
		got := host.sent[i].v.(List)
		if !sameBacking(got, own.(List)) {
			t.Fatalf("sent %s is a copy, want the seed's list", name)
		}
	}
	want := []string{
		`[1, 2.5, "x", true]`,
		`[[1, 2.5, "x", true], [3]]`,
		`[{k: 1}, 1]`,
		`[Wrap{tag: 1}]`,
		`[` + FormatValue(b.List()[0]) + `]`,
		FormatValue(b),
	}
	for i, w := range want {
		if got := FormatValue(host.sent[i].v); got != w {
			t.Fatalf("send %d reads %s after the seed's writes, want %s", i, got, w)
		}
	}
	if _, isBatch := host.sent[5].v.(*Batch); isBatch {
		t.Fatal("a poll batch was sent as itself")
	}
	// The seed's own values did take the writes.
	for name, w := range map[string]string{"withMap": `[{k: 2}, 1]`, "withStruct": `[Wrap{tag: 2}]`} {
		if v, _ := r.Var(name); FormatValue(v) != w {
			t.Fatalf("%s = %s, want %s", name, FormatValue(v), w)
		}
	}
}
