package placement

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"farm/internal/netmodel"
	"farm/internal/poly"
)

// The oracle below is the map-keyed representation resources and linear
// polynomials had before they became vectors indexed by netmodel.Res:
// its code as it was, except that Eval sums in sorted-name order, where
// it summed in map order. FuzzVectorOracle holds the vectors to it.

// mapResources maps a resource name to an amount; absent is 0.
type mapResources map[string]float64

func (r mapResources) clone() mapResources {
	c := make(mapResources, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

func (r mapResources) add(s mapResources) mapResources {
	c := r.clone()
	for k, v := range s {
		c[k] += v
	}
	return c
}

func (r mapResources) sub(s mapResources) mapResources {
	c := r.clone()
	for k, v := range s {
		c[k] -= v
	}
	return c
}

func (r mapResources) atLeast(s mapResources, eps float64) bool {
	for k, v := range s {
		if r[k] < v-eps {
			return false
		}
	}
	return true
}

func (r mapResources) String() string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, r[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// mapLinear is c0 + sum coef[v]*v over named variables.
type mapLinear struct {
	Const float64
	Coef  map[string]float64
}

func (p mapLinear) clone() mapLinear {
	q := mapLinear{Const: p.Const}
	if len(p.Coef) > 0 {
		q.Coef = make(map[string]float64, len(p.Coef))
		for k, v := range p.Coef {
			q.Coef[k] = v
		}
	}
	return q
}

func (p mapLinear) vars() []string {
	vs := make([]string, 0, len(p.Coef))
	for v, c := range p.Coef {
		if c != 0 {
			vs = append(vs, v)
		}
	}
	sort.Strings(vs)
	return vs
}

func (p mapLinear) add(q mapLinear) mapLinear {
	r := p.clone()
	r.Const += q.Const
	for v, c := range q.Coef {
		if c == 0 {
			continue
		}
		if r.Coef == nil {
			r.Coef = make(map[string]float64)
		}
		r.Coef[v] += c
	}
	return r
}

func (p mapLinear) sub(q mapLinear) mapLinear { return p.add(q.scale(-1)) }

func (p mapLinear) scale(k float64) mapLinear {
	r := mapLinear{Const: p.Const * k}
	if len(p.Coef) > 0 && k != 0 {
		r.Coef = make(map[string]float64, len(p.Coef))
		for v, c := range p.Coef {
			if c*k != 0 {
				r.Coef[v] = c * k
			}
		}
	}
	return r
}

// eval sums the terms in sorted-name order.
func (p mapLinear) eval(assign mapResources) float64 {
	names := make([]string, 0, len(p.Coef))
	for name := range p.Coef {
		names = append(names, name)
	}
	sort.Strings(names)
	v := p.Const
	for _, name := range names {
		v += p.Coef[name] * assign[name]
	}
	return v
}

func (p mapLinear) String() string {
	var b strings.Builder
	b.WriteString(strconv.FormatFloat(p.Const, 'g', -1, 64))
	for _, v := range p.vars() {
		c := p.Coef[v]
		if c >= 0 {
			fmt.Fprintf(&b, " + %s*%s", strconv.FormatFloat(c, 'g', -1, 64), v)
		} else {
			fmt.Fprintf(&b, " - %s*%s", strconv.FormatFloat(-c, 'g', -1, 64), v)
		}
	}
	return b.String()
}

type mapCase struct {
	Constraints []mapLinear
	Util        []mapLinear
}

func minEval(m []mapLinear, assign mapResources) float64 {
	v := math.Inf(1)
	for _, t := range m {
		if tv := t.eval(assign); tv < v {
			v = tv
		}
	}
	return v
}

func (c mapCase) feasible(assign mapResources, eps float64) bool {
	for _, con := range c.Constraints {
		if con.eval(assign) < -eps {
			return false
		}
	}
	return true
}

func utilityEval(u []mapCase, assign mapResources) (float64, bool) {
	best, ok := math.Inf(-1), false
	for _, c := range u {
		if !c.feasible(assign, 1e-9) {
			continue
		}
		if v := minEval(c.Util, assign); !ok || v > best {
			best, ok = v, true
		}
	}
	return best, ok
}

// mapDigest is Result.Digest over map allocations.
func mapDigest(placed map[string]Assignment, allocs map[string]mapResources, dropped []string, migrations int) string {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		mix(uint64(len(s)))
	}
	var resNames []string
	for _, id := range sortedKeys(placed) {
		a, alloc := placed[id], allocs[id]
		mixStr(id)
		mix(uint64(a.Switch))
		mix(uint64(a.Case))
		mix(math.Float64bits(a.Utility))
		resNames = resNames[:0]
		for name := range alloc {
			resNames = append(resNames, name)
		}
		sort.Strings(resNames)
		for _, name := range resNames {
			mixStr(name)
			mix(math.Float64bits(alloc[name]))
		}
	}
	for _, t := range dropped {
		mixStr(t)
	}
	mix(uint64(migrations))
	return fmt.Sprintf("%016x", h)
}

// toMap is v as the map held it: the nonzero amounts by name.
func toMap(v netmodel.Vector) mapResources {
	m := mapResources{}
	for r, x := range v {
		if x != 0 {
			m[netmodel.Res(r).String()] = x
		}
	}
	return m
}

// toFullMap is v with every resource named, zeros included.
func toFullMap(v netmodel.Vector) mapResources {
	m := mapResources{}
	for r, x := range v {
		m[netmodel.Res(r).String()] = x
	}
	return m
}

func fromMap(m mapResources) netmodel.Vector {
	var v netmodel.Vector
	for name, x := range m {
		r, ok := netmodel.ResByName(name)
		if !ok {
			panic("no resource " + name)
		}
		v[r] = x
	}
	return v
}

func linToMap(p poly.Linear) mapLinear {
	m := mapLinear{Const: p.Const}
	for r, c := range p.Coef {
		if c != 0 {
			if m.Coef == nil {
				m.Coef = map[string]float64{}
			}
			m.Coef[netmodel.Res(r).String()] = c
		}
	}
	return m
}

func linFromMap(m mapLinear) poly.Linear {
	return poly.Linear{Const: m.Const, Coef: fromMap(mapResources(m.Coef))}
}

// oracleBytes decodes a fuzz input into amounts: each a zero or a
// multiple of 1, 1/3, 1/7 or 1/1024 up to ±32768, so sums round. It
// draws no NaN, Inf or -0, which the map form cannot tell from 0.
type oracleBytes struct{ b []byte }

func (d *oracleBytes) byte() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *oracleBytes) amount() float64 {
	k := d.byte()
	if k%4 == 0 {
		return 0
	}
	n := int16(uint16(d.byte())<<8 | uint16(d.byte()))
	if n == 0 {
		return 0
	}
	return float64(n) / []float64{1, 3, 7, 1024}[k%4]
}

func (d *oracleBytes) vector() netmodel.Vector {
	var v netmodel.Vector
	for r := range v {
		v[r] = d.amount()
	}
	return v
}

func (d *oracleBytes) linear() poly.Linear {
	return poly.Linear{Const: d.amount(), Coef: d.vector()}
}

// FuzzVectorOracle: resource vectors and linear polynomials indexed by
// netmodel.Res agree bit for bit with the map-keyed oracle, summed in
// sorted-name order, on random five-resource vectors and random
// Linear, Case and Utility values: Linear and MinExpr Eval,
// Case.Feasible, Utility.Eval, Add and Sub of both, AtLeast, String
// and Result.Digest. The map form holds an amount of 0 as no entry;
// AtLeast, which reads the absent entries of s as a demand of 0, is
// compared with every resource named, since a vector has no absent
// entries.
func FuzzVectorOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x00\x04\x02\x7f\xff\x03\x80\x00\x05\x12\x34\x06\x00\x01\x07\xab\xcd"))
	f.Add([]byte("\x03\x00\x01\x03\x00\x01\x03\x00\x01\x03\x00\x01\x03\x00\x01\x01\x00\x02\x02\xff\xfe\x01\x00\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &oracleBytes{b: data}
		a, b := d.vector(), d.vector()
		ma, mb := toMap(a), toMap(b)

		if got, want := a.Add(b), fromMap(ma.add(mb)); !sameBits(got, want) {
			t.Fatalf("%v.Add(%v) = %v, map %v", a, b, got, want)
		}
		if got, want := a.Sub(b), fromMap(ma.sub(mb)); !sameBits(got, want) {
			t.Fatalf("%v.Sub(%v) = %v, map %v", a, b, got, want)
		}
		eps := math.Abs(d.amount())
		if got, want := a.AtLeast(b, eps), toFullMap(a).atLeast(toFullMap(b), eps); got != want {
			t.Fatalf("%v.AtLeast(%v, %g) = %v, map %v", a, b, eps, got, want)
		}
		if got, want := a.String(), ma.String(); got != want {
			t.Fatalf("String %q, map %q", got, want)
		}

		p, q := d.linear(), d.linear()
		mp, mq := linToMap(p), linToMap(q)
		if got, want := p.Eval(a), mp.eval(ma); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("(%v).Eval(%v) = %v, map %v", p, a, got, want)
		}
		if got, want := p.String(), mp.String(); got != want {
			t.Fatalf("String %q, map %q", got, want)
		}
		if got, want := p.Add(q), linFromMap(mp.add(mq)); !sameLinear(got, want) {
			t.Fatalf("(%v).Add(%v) = %v, map %v", p, q, got, want)
		}
		if got, want := p.Sub(q), linFromMap(mp.sub(mq)); !sameLinear(got, want) {
			t.Fatalf("(%v).Sub(%v) = %v, map %v", p, q, got, want)
		}

		var u poly.Utility
		var mu []mapCase
		for n := 1 + int(d.byte()%3); n > 0; n-- {
			var c poly.Case
			var mc mapCase
			for k := int(d.byte() % 3); k > 0; k-- {
				l := d.linear()
				c.Constraints, mc.Constraints = append(c.Constraints, l), append(mc.Constraints, linToMap(l))
			}
			for k := 1 + int(d.byte()%3); k > 0; k-- {
				l := d.linear()
				c.Util, mc.Util = append(c.Util, l), append(mc.Util, linToMap(l))
			}
			u, mu = append(u, c), append(mu, mc)
			if got, want := c.Feasible(a, eps), mc.feasible(ma, eps); got != want {
				t.Fatalf("Feasible(%v) = %v, map %v", a, got, want)
			}
			if got, want := c.Util.Eval(b), minEval(mc.Util, mb); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("MinExpr.Eval(%v) = %v, map %v", b, got, want)
			}
		}
		gu, gok := u.Eval(a)
		wu, wok := utilityEval(mu, ma)
		if gok != wok || math.Float64bits(gu) != math.Float64bits(wu) {
			t.Fatalf("Utility.Eval(%v) = %v, %v; map %v, %v", a, gu, gok, wu, wok)
		}

		res := &Result{Placed: map[string]Assignment{}, DroppedTasks: []string{"t9"}, Migrations: int(d.byte())}
		allocs := map[string]mapResources{}
		for i, v := range []netmodel.Vector{a, b, a.Add(b)} {
			id := fmt.Sprintf("s%d", int(d.byte())%4+4*i)
			res.Placed[id] = Assignment{Switch: netmodel.SwitchID(d.byte()), Alloc: v, Case: int(d.byte() % 3), Utility: d.amount()}
			allocs[id] = toMap(v)
		}
		if got, want := res.Digest(), mapDigest(res.Placed, allocs, res.DroppedTasks, res.Migrations); got != want {
			t.Fatalf("Digest %s, map %s", got, want)
		}
	})
}

func sameBits(a, b netmodel.Vector) bool {
	for r := range a {
		if math.Float64bits(a[r]) != math.Float64bits(b[r]) {
			return false
		}
	}
	return true
}

func sameLinear(p, q poly.Linear) bool {
	return math.Float64bits(p.Const) == math.Float64bits(q.Const) && sameBits(p.Coef, q.Coef)
}
