package placement

import (
	"fmt"
	"math/rand"

	"farm/internal/netmodel"
	"farm/internal/poly"
)

// ScenarioConfig parameterizes the random workload generator used for
// the Fig. 7 evaluation: up to 10 task types (drawn from Tab. I-like
// profiles), seeds with randomized resource and placement needs spread
// over the fabric.
type ScenarioConfig struct {
	Switches int
	Seeds    int
	Tasks    int // distinct task instances; seeds are spread across them
	Seed     int64
}

// candidateSpread is the max size of a seed's candidate set (uniform in
// [1, candidateSpread]).
const candidateSpread = 4

// taskProfile mirrors the shape of a Tab. I use case: how demanding its
// seeds are and how their utility responds to resources.
type taskProfile struct {
	name     string
	utilOf   func(r *rand.Rand) poly.Utility
	pollRate func(r *rand.Rand) []PollDemand
}

var profiles = []taskProfile{
	{
		name: "hh",
		utilOf: func(r *rand.Rand) poly.Utility {
			return boundedUtility(0.25+r.Float64()*0.5, 64, poly.MinOf(
				poly.Term(netmodel.ResVCPU, 8+r.Float64()*4),
				poly.Term(netmodel.ResPCIe, 10+r.Float64()*5),
			))
		},
		pollRate: func(r *rand.Rand) []PollDemand {
			return []PollDemand{{Subject: "ports:all", Rate: poly.Term(netmodel.ResPCIe, 50+r.Float64()*50)}}
		},
	},
	{
		name: "ddos",
		utilOf: func(r *rand.Rand) poly.Utility {
			return boundedUtility(0.5, 128, poly.MinOf(
				poly.Term(netmodel.ResVCPU, 12+r.Float64()*6),
				poly.Term(netmodel.ResTCAM, 0.1+r.Float64()*0.1).Add(poly.Constant(2)),
			))
		},
		pollRate: func(r *rand.Rand) []PollDemand {
			return []PollDemand{{Subject: "rule:syn", Rate: poly.Constant(100 + r.Float64()*100)}}
		},
	},
	{
		name: "superspreader",
		utilOf: func(r *rand.Rand) poly.Utility {
			return boundedUtility(0.5, 256, poly.MinOf(
				poly.Term(netmodel.ResRAM, 0.02+r.Float64()*0.01),
			))
		},
		pollRate: func(r *rand.Rand) []PollDemand {
			return []PollDemand{{Subject: "ports:all", Rate: poly.Constant(50 + r.Float64()*50)}}
		},
	},
	{
		name: "portscan",
		utilOf: func(r *rand.Rand) poly.Utility {
			return boundedUtility(0.25, 64, poly.MinOf(
				poly.Term(netmodel.ResVCPU, 6+r.Float64()*2).Add(poly.Constant(1)),
			))
		},
		pollRate: func(r *rand.Rand) []PollDemand {
			return []PollDemand{{Subject: "rule:scan", Rate: poly.Constant(80 + r.Float64()*40)}}
		},
	},
	{
		name: "entropy",
		utilOf: func(r *rand.Rand) poly.Utility {
			return boundedUtility(1, 512, poly.MinOf(
				poly.Term(netmodel.ResVCPU, 10),
				poly.Term(netmodel.ResRAM, 0.01),
			))
		},
		pollRate: func(r *rand.Rand) []PollDemand {
			return []PollDemand{{Subject: "ports:all", Rate: poly.Term(netmodel.ResPCIe, 100)}}
		},
	},
	{
		name: "flowsize",
		utilOf: func(r *rand.Rand) poly.Utility {
			u := boundedUtility(0.5, 256, poly.MinOf(poly.Term(netmodel.ResVCPU, 9)))
			// A cheap fallback case: lower utility at lower footprint
			// (or-split shape).
			u = append(u, poly.Case{
				Constraints: []poly.Linear{poly.Term(netmodel.ResVCPU, 1).Sub(poly.Constant(0.1))},
				Util:        poly.MinOf(poly.Term(netmodel.ResVCPU, 3)),
			})
			return u
		},
		pollRate: func(r *rand.Rand) []PollDemand {
			return []PollDemand{{Subject: "rule:flows", Rate: poly.Constant(60)}}
		},
	},
	{
		name: "synflood",
		utilOf: func(r *rand.Rand) poly.Utility {
			return boundedUtility(0.25, 64, poly.MinOf(
				poly.Term(netmodel.ResVCPU, 7+r.Float64()*3),
				poly.Term(netmodel.ResPoll, 0.02),
			))
		},
		pollRate: func(r *rand.Rand) []PollDemand {
			return []PollDemand{{Subject: "rule:syn", Rate: poly.Constant(120)}}
		},
	},
	{
		name: "linkfail",
		utilOf: func(r *rand.Rand) poly.Utility {
			return boundedUtility(0.1, 32, poly.MinOf(poly.Constant(5+r.Float64()*5)))
		},
		pollRate: func(r *rand.Rand) []PollDemand {
			return []PollDemand{{Subject: "ports:all", Rate: poly.Constant(20)}}
		},
	},
	{
		name: "slowloris",
		utilOf: func(r *rand.Rand) poly.Utility {
			return boundedUtility(0.5, 128, poly.MinOf(
				poly.Term(netmodel.ResVCPU, 8),
				poly.Term(netmodel.ResTCAM, 0.05).Add(poly.Constant(1)),
			))
		},
		pollRate: func(r *rand.Rand) []PollDemand {
			return []PollDemand{{Subject: "rule:http", Rate: poly.Constant(90)}}
		},
	},
	{
		name: "ml",
		utilOf: func(r *rand.Rand) poly.Utility {
			return boundedUtility(2, 1024, poly.MinOf(
				poly.Term(netmodel.ResVCPU, 15),
			))
		},
		pollRate: func(r *rand.Rand) []PollDemand {
			return []PollDemand{{Subject: "ports:all", Rate: poly.Constant(200)}}
		},
	},
}

// boundedUtility builds a single-case utility with vCPU/RAM lower
// bounds and the given min-of-linear value.
func boundedUtility(minVCPU, minRAM float64, u poly.MinExpr) poly.Utility {
	return poly.Utility{{
		Constraints: []poly.Linear{
			poly.Term(netmodel.ResVCPU, 1).Sub(poly.Constant(minVCPU)),
			poly.Term(netmodel.ResRAM, 1).Sub(poly.Constant(minRAM)),
		},
		Util: u,
	}}
}

// RandomScenario builds a reproducible Fig. 7-style placement problem.
func RandomScenario(cfg ScenarioConfig) *Input {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Tasks <= 0 {
		cfg.Tasks = 1
	}
	in := &Input{}
	for i := 0; i < cfg.Switches; i++ {
		in.Switches = append(in.Switches, SwitchInfo{
			ID:       netmodel.SwitchID(i),
			Capacity: netmodel.DefaultLeafCapacity(),
		})
	}
	for i := 0; i < cfg.Seeds; i++ {
		taskIdx := i % cfg.Tasks
		prof := profiles[taskIdx%len(profiles)]
		nCand := 1 + rng.Intn(candidateSpread)
		if nCand > cfg.Switches {
			nCand = cfg.Switches
		}
		cands := make([]netmodel.SwitchID, 0, nCand)
		for _, p := range rng.Perm(cfg.Switches)[:nCand] {
			cands = append(cands, netmodel.SwitchID(p))
		}
		in.Seeds = append(in.Seeds, SeedSpec{
			ID:         fmt.Sprintf("t%d/s%d", taskIdx, i),
			Task:       fmt.Sprintf("task%d-%s", taskIdx, prof.name),
			Candidates: cands,
			Utility:    prof.utilOf(rng),
			Polls:      prof.pollRate(rng),
		})
	}
	return in
}
