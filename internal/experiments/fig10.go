package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"farm/internal/transport"
)

// Fig10Point is one (transport, seeds) latency measurement.
type Fig10Point struct {
	Seeds       int
	MeanLatency time.Duration
	P99Latency  time.Duration
}

// Fig10Result is the reproduced Fig. 10 (soil<->seed communication
// latency, shared buffer vs socket RPC). Unlike the simulated
// experiments this one measures real wall-clock time on real transports.
type Fig10Result struct {
	SharedBuf []Fig10Point
	TCPRPC    []Fig10Point
}

// fig10Scale is one Fig. 10 sweep: the seed counts and the calls each
// seed makes per measurement.
type fig10Scale struct {
	seedCounts   []int
	callsPerSeed int
}

// fig10PayloadBytes is each request's size, a typical statistics record
// batch.
const fig10PayloadBytes = 256

// Fig10 creates N concurrent "seeds" per transport, each performing
// synchronous request/response calls against the soil, and reports the
// per-call latency. The socket path (the gRPC role) degrades linearly
// with the seed count; the shared buffer stays flat (§VI-E-c). Each seed
// makes 2000 calls per measurement at full scale, 500 at quick scale.
func Fig10(full bool) (*Fig10Result, error) {
	sc := fig10Scale{seedCounts: []int{1, 10, 50, 100, 150}, callsPerSeed: 500}
	if full {
		sc.callsPerSeed = 2000
	}
	return fig10(sc)
}

func fig10(sc fig10Scale) (*Fig10Result, error) {
	res := &Fig10Result{}
	handler := func(dst, req []byte) []byte { return append(dst, req...) } // echo soil

	for _, n := range sc.seedCounts {
		shared := transport.NewSharedBufServer(64*1024, handler)
		p, err := fig10Measure(shared, n, sc.callsPerSeed)
		shared.Close()
		if err != nil {
			return nil, err
		}
		res.SharedBuf = append(res.SharedBuf, p)

		tcp, err := transport.NewTCPServer(handler)
		if err != nil {
			return nil, err
		}
		p, err = fig10Measure(tcp, n, sc.callsPerSeed)
		tcp.Close()
		if err != nil {
			return nil, err
		}
		res.TCPRPC = append(res.TCPRPC, p)
	}
	return res, nil
}

// Table renders the result.
func (r *Fig10Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 10: soil<->seed call latency — shared buffer vs socket RPC (real time)",
		Columns: []string{"seeds", "mean", "p99"},
	}
	for _, p := range r.SharedBuf {
		t.Rows = append(t.Rows, Row{Label: "shared buffer (threads)", Values: []string{
			fmt.Sprint(p.Seeds), fmt.Sprint(p.MeanLatency), fmt.Sprint(p.P99Latency)}})
	}
	for _, p := range r.TCPRPC {
		t.Rows = append(t.Rows, Row{Label: "TCP RPC (processes)", Values: []string{
			fmt.Sprint(p.Seeds), fmt.Sprint(p.MeanLatency), fmt.Sprint(p.P99Latency)}})
	}
	t.Notes = append(t.Notes, "TCP loopback RPC stands in for gRPC (stdlib-only build)")
	return t
}

func fig10Measure(srv transport.Server, seeds, calls int) (Fig10Point, error) {
	payload := make([]byte, fig10PayloadBytes)
	type result struct {
		lats []time.Duration
		err  error
	}
	results := make([]result, seeds)
	var wg sync.WaitGroup
	for i := 0; i < seeds; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			conn, err := srv.Dial()
			if err != nil {
				results[idx].err = err
				return
			}
			defer conn.Close()
			lats := make([]time.Duration, 0, calls)
			for c := 0; c < calls; c++ {
				start := time.Now()
				if _, err := conn.Call(payload); err != nil {
					results[idx].err = err
					return
				}
				lats = append(lats, time.Since(start))
			}
			results[idx].lats = lats
		}(i)
	}
	wg.Wait()
	var all []time.Duration
	for _, r := range results {
		if r.err != nil {
			return Fig10Point{}, r.err
		}
		all = append(all, r.lats...)
	}
	if len(all) == 0 {
		return Fig10Point{}, fmt.Errorf("experiments: fig10: no samples")
	}
	var sum time.Duration
	for _, l := range all {
		sum += l
	}
	sorted := append([]time.Duration(nil), all...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return Fig10Point{
		Seeds:       seeds,
		MeanLatency: sum / time.Duration(len(all)),
		P99Latency:  sorted[len(sorted)*99/100],
	}, nil
}
