package core

import (
	"fmt"
	"slices"
	"testing"
)

// mapReuseSource holds private maps that lowering empties in place —
// one reset while a local still holds its key list, one sent and then
// reset, one whose map_get default is written after a miss, one reset
// while a map fetched from it lives on — and one map per route by which
// a map escapes its variable, each written, reset and written again
// while what it escaped to is read.
const mapReuseSource = `
struct Box { map f; }
function size(map m) { return map_len(m); }
function give() { return map_set(map_new(), "given", 1); }
function pass(map m) { return m; }
machine Reuse {
  place all;
  poll fill = Poll { .ival = 10, .what = port ANY };
  poll keys = Poll { .ival = 10, .what = port ANY };
  poll ship = Poll { .ival = 10, .what = port ANY };
  poll nest = Poll { .ival = 10, .what = port ANY };
  poll esc = Poll { .ival = 10, .what = port ANY };
  poll hop = Poll { .ival = 10, .what = port ANY };
  map priv; map sent; map outer;
  map toVar; map alias; map fromVar; map donor; map asValue; map holder;
  map asElem; map asField; map asArg; map fromFunc; map viaFunc;
  map fromGet; map got; map stash;
  list held; list inList; Box box; long n;
  state a {
    map spriv;
    when (fill as v) do {
      priv = map_set(priv, v, map_get(priv, v, 0) + 1);
      sent = map_set(sent, str(v), v);
      spriv = map_set(spriv, v / 3, map_len(priv));
      if (v < 0) then { priv = map_del(priv, v + 1); map_del(spriv, 0); }
    }
    when (keys as v) do {
      list ks = map_keys(priv);
      priv = map_new();
      priv = map_set(priv, v, 1);
      if (v > 2) then { spriv = map_new(); }
      held = ks;
      n = list_len(ks) + list_len(map_keys(priv)) + list_len(map_keys(spriv));
    }
    when (ship as v) do {
      send sent to harvester;
      sent = map_new();
      sent = map_set(sent, "after", v);
      send sent to harvester;
      send spriv to harvester;
    }
    when (nest as v) do {
      map inner = map_get(outer, v, map_new());
      map_set(inner, "n", map_get(inner, "n", 0) + 1);
      if (v > 0) then { outer = map_set(outer, v, inner); }
      n = map_len(map_get(outer, v + 1, map_new())) + map_get(inner, "n", 0);
      if (v == 5) then { outer = map_new(); }
    }
    when (esc as v) do {
      toVar = map_set(toVar, v, 1); alias = toVar; toVar = map_new(); toVar = map_set(toVar, "t", v);
      fromVar = donor; fromVar = map_set(fromVar, v, 2); donor = map_set(donor, "d", v); fromVar = map_new();
      asValue = map_set(asValue, v, 3); holder = map_set(holder, "inner", asValue); asValue = map_new(); asValue = map_set(asValue, "v", v);
      asElem = map_set(asElem, v, 4); inList = [asElem]; asElem = map_new(); asElem = map_set(asElem, "e", v);
      asField = map_set(asField, v, 5); box = Box { .f = asField }; asField = map_new(); asField = map_set(asField, "f", v);
      asArg = map_set(asArg, v, 6); n = size(asArg); asArg = map_new();
      fromFunc = give(); fromFunc = map_set(fromFunc, v, 7); fromFunc = map_new();
      stash = pass(viaFunc); viaFunc = map_set(viaFunc, "passed", map_len(viaFunc));
      viaFunc = map_new(); viaFunc = map_set(viaFunc, "v", v);
      fromGet = map_get(holder, "inner", map_new()); fromGet = map_set(fromGet, "g", v);
      if (v == 7) then { holder = map_new(); fromGet = map_set(fromGet, "h", v); }
      fromGet = map_new();
      if (v > 3) then { transit b; }
    }
    when (recv long r from harvester) do {
      spriv = map_set(spriv, r, r);
      sent = map_set(sent, r, r);
    }
    when (hop as v) do {
      map loc = map_new();
      loc = map_set(loc, v, 9);
      loc = map_new();
    }
  }
  state b {
    map bmap;
    when (hop as v) do {
      bmap = map_set(bmap, v, 10); bmap = map_new();
      transit a;
    }
  }
  when (recv map m from harvester) do {
    got = m; got = map_set(got, "recv", 1); m = map_set(m, "bound", 2); got = map_new();
    priv = map_set(priv, "recv", map_len(m));
  }
  when (recv long r from harvester) do {
    sent = map_set(sent, r, r);
  }
}
`

// mapReusePrivate is what lowering must find private in mapReuseSource
// (the escape routes and TestPrivateMaps say why each other one is not).
var mapReusePrivate = []string{"bmap", "holder", "outer", "priv", "sent", "spriv"}

// FuzzMapReuse drives mapReuseSource with events decoded from arbitrary
// bytes — triggers with small arguments, and long and map messages —
// through the interpreter, which builds a new map for every map_new(),
// and the register runner, which empties private maps in place, builds
// a map_new() default only on a miss and hands back a key list it
// already made. After every event both must agree on state, emissions,
// snapshots and every machine variable Var reads; and on the register
// runner, a map Var handed out stays as it was through the next event.
func FuzzMapReuse(f *testing.F) {
	cm := parityCompile(f, mapReuseSource, "Reuse")
	prog, err := Compile(cm)
	if err != nil {
		f.Fatal(err)
	}
	if got := prog.p.Private; !slices.Equal(got, mapReusePrivate) {
		f.Fatalf("private maps %v, want %v", got, mapReusePrivate)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 3, 0, 5, 1, 4, 0, 7, 1, 2, 2, 1, 0, 9, 2, 0})
	f.Add([]byte{3, 1, 3, 1, 3, 2, 3, 5, 3, 1, 3, 6, 3, 5})
	f.Add([]byte{4, 1, 4, 2, 5, 3, 4, 7, 5, 1, 4, 0, 6, 4, 7, 3, 4, 9, 5, 2})
	f.Add([]byte{0, 1, 0, 2, 1, 3, 6, 1, 7, 2, 1, 1, 2, 3, 0, 15, 1, 0, 7, 8})
	triggers := []string{"fill", "keys", "ship", "nest", "esc", "hop"}
	vars := make([]string, len(cm.Vars))
	for i, v := range cm.Vars {
		vars[i] = v.Name
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newBackendSet(t, cm, nil)
		p.do(t, "start", func(r Runner) error { return r.Start() })
		harv := MsgSource{Harvester: true}
		// The maps the register runner's Var handed out at the last
		// event, and how they rendered then.
		held, heldText := map[string]Value{}, map[string]string{}
		for i := 0; i+1 < len(data) && i < 400; i += 2 {
			op, arg := int(data[i]), int64(data[i+1]%16)-4
			ctx := fmt.Sprintf("event %d (op %d, arg %d)", i/2, op, arg)
			switch k := op % (len(triggers) + 2); {
			case k < len(triggers):
				p.do(t, ctx, func(r Runner) error { return r.HandleTrigger(triggers[k], arg) })
			case k == len(triggers):
				p.do(t, ctx, func(r Runner) error { return r.HandleRecv(harv, arg) })
			default:
				p.do(t, ctx, func(r Runner) error {
					m := NewMap()
					m.Set("m", arg)
					return r.HandleRecv(harv, m)
				})
			}
			diffSet(t, p, ctx)
			for _, name := range vars {
				v0, _ := p.rs[0].Var(name)
				v1, _ := p.rs[1].Var(name)
				if FormatValue(v0) != FormatValue(v1) {
					t.Fatalf("%s: Var(%s): interp %s, register %s", ctx, name, FormatValue(v0), FormatValue(v1))
				}
				if v, ok := held[name]; ok && FormatValue(v) != heldText[name] {
					t.Fatalf("%s: the map Var(%s) handed out before this event changed: was %s, now %s", ctx, name, heldText[name], FormatValue(v))
				}
				if _, isMap := v1.(*MapVal); isMap {
					held[name], heldText[name] = v1, FormatValue(v1)
				}
			}
		}
	})
}
