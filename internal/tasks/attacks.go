package tasks

import (
	"farm/internal/core"
	"farm/internal/harvest"
	"farm/internal/soil"
)

// DDoSSource detects volumetric attacks on a destination: probe SYN
// packets, count per destination within a sliding interval, and react
// locally by dropping the attack traffic (Mirkovic & Reiher taxonomy).
const DDoSSource = `
// DDoS detection and mitigation: track per-destination SYN rates via
// packet probes; when a destination exceeds the attack threshold,
// install a drop rule locally (the quench reaction of §I) and inform
// the harvester so it can coordinate network-wide blocking.
machine DDoS {
  place all;
  probe syns = Probe { .ival = 1, .what = proto "tcp" };
  time window = 100;
  external long synThreshold;
  map synCount;
  string attacked;

  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 200 and res.TCAM >= 4) then {
        return min(res.vCPU * 3, res.PCIe * 2);
      }
    }
    when (syns as p) do {
      if (p.syn and not p.ack) then {
        string d = p.dstIP;
        synCount = map_set(synCount, d, map_get(synCount, d, 0) + 1);
        if (map_get(synCount, d, 0) >= synThreshold) then {
          attacked = d;
          transit mitigate;
        }
      }
    }
    when (window as now) do {
      synCount = map_new();
    }
  }
  state mitigate {
    util (res) { return 200; }
    when (enter) do {
      addTCAMRule(dstIP attacked and proto "tcp", drop(), 100);
      send attacked to harvester;
      transit observe;
    }
    when (exit) do {
      synCount = map_new();
    }
  }
  when (recv string unblock from harvester) do {
    removeTCAMRule(dstIP unblock and proto "tcp");
  }
}
`

// NewTCPConnSource counts new TCP connections per window and reports
// the rate (NetQRE's counting example).
const NewTCPConnSource = `
// New TCP connection counting: one count per observed SYN without ACK.
machine NewTCP {
  place all;
  probe syns = Probe { .ival = 1, .what = proto "tcp" };
  time window = 1000;
  long conns;

  state count {
    util (res) {
      if (res.vCPU >= 0.5) then { return res.vCPU; }
    }
    when (syns as p) do {
      if (p.syn and not p.ack) then { conns = conns + 1; }
    }
    when (window as now) do {
      send conns to harvester;
      conns = 0;
    }
  }
}
`

// SYNFloodSource detects SYN floods by the imbalance between SYNs and
// the handshake completions that should follow.
const SYNFloodSource = `
// TCP SYN flood detection: compare SYN arrivals against SYN+ACK
// responses per destination within a window; a large imbalance means
// half-open connection buildup. React by rate-limiting SYNs to the
// victim and escalate to the harvester.
machine SYNFlood {
  place all;
  probe pkts = Probe { .ival = 1, .what = proto "tcp" };
  time window = 200;
  external long imbalanceLimit;
  map synsSeen;
  map acksSeen;
  string victim;

  state watch {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 128 and res.TCAM >= 2) then {
        return min(res.vCPU * 2, 50);
      }
    }
    when (pkts as p) do {
      if (p.syn and not p.ack) then {
        synsSeen = map_set(synsSeen, p.dstIP, map_get(synsSeen, p.dstIP, 0) + 1);
      }
      if (p.syn and p.ack) then {
        acksSeen = map_set(acksSeen, p.srcIP, map_get(acksSeen, p.srcIP, 0) + 1);
      }
    }
    when (window as now) do {
      list ds = map_keys(synsSeen);
      long i = 0;
      while (i < list_len(ds)) {
        string d = list_get(ds, i);
        long imbalance = map_get(synsSeen, d, 0) - map_get(acksSeen, d, 0);
        if (imbalance >= imbalanceLimit) then {
          victim = d;
          transit flooded;
        }
        i = i + 1;
      }
      synsSeen = map_new();
      acksSeen = map_new();
    }
  }
  state flooded {
    util (res) { return 150; }
    when (enter) do {
      addTCAMRule(dstIP victim and proto "tcp", rateLimit(), 90);
      send victim to harvester;
      transit watch;
    }
  }
  when (recv string clear from harvester) do {
    removeTCAMRule(dstIP clear and proto "tcp");
  }
}
`

// PartialTCPSource tracks flows that begin (SYN) but never carry
// payload or finish — NetQRE's partial flow query.
const PartialTCPSource = `
// Partial TCP flow detection: flows that open but never complete.
// A flow that stays SYN-only across a full sweep interval is partial.
machine PartialTCP {
  place all;
  probe pkts = Probe { .ival = 1, .what = proto "tcp" };
  time sweep = 500;
  external long reportLimit;
  map opened;
  map completed;
  long partials;

  state track {
    util (res) {
      if (res.vCPU >= 0.5 and res.RAM >= 256) then {
        return min(res.vCPU, res.RAM / 256);
      }
    }
    when (pkts as p) do {
      if (p.syn and not p.ack) then {
        opened = map_set(opened, p.flow, 1);
      }
      if (p.fin or (p.ack and not p.syn)) then {
        completed = map_set(completed, p.flow, 1);
      }
    }
    when (sweep as now) do {
      partials = 0;
      list fs = map_keys(opened);
      long i = 0;
      while (i < list_len(fs)) {
        string f = list_get(fs, i);
        if (not map_has(completed, f)) then { partials = partials + 1; }
        i = i + 1;
      }
      if (partials >= reportLimit) then {
        send partials to harvester;
      }
      opened = map_new();
      completed = map_new();
    }
  }
}
`

// SlowlorisSource detects slow-rate DoS against HTTP servers.
const SlowlorisSource = `
// Slowloris detection (Cambiaso et al.): many concurrent connections
// sending partial HTTP requests at a trickle. Count distinct sources
// holding partial requests toward one server; react by rate-limiting
// the server's port 80 ingress and reporting the source list.
machine Slowloris {
  place all;
  probe http = Probe { .ival = 1, .what = dstPort 80 };
  time sweep = 500;
  external long connLimit;
  map partialsByDst;
  string target;
  list culprits;

  state watch {
    util (res) {
      if (res.vCPU >= 0.5 and res.RAM >= 128 and res.TCAM >= 2) then {
        return min(res.vCPU * 2, res.RAM / 64);
      }
    }
    when (http as p) do {
      if (p.httpPartial) then {
        map perDst = map_get(partialsByDst, p.dstIP, map_new());
        map_set(perDst, p.srcIP, 1);
        partialsByDst = map_set(partialsByDst, p.dstIP, perDst);
      }
    }
    when (sweep as now) do {
      list ds = map_keys(partialsByDst);
      long i = 0;
      while (i < list_len(ds)) {
        string d = list_get(ds, i);
        map srcs = map_get(partialsByDst, d, map_new());
        if (map_len(srcs) >= connLimit) then {
          target = d;
          culprits = map_keys(srcs);
          transit throttle;
        }
        i = i + 1;
      }
      partialsByDst = map_new();
    }
  }
  state throttle {
    util (res) { return 120; }
    when (enter) do {
      addTCAMRule(dstIP target and dstPort 80, rateLimit(), 80);
      send culprits to harvester;
      transit watch;
    }
  }
}
`

// SuperSpreaderSource detects hosts contacting unusually many distinct
// destinations (OpenSketch's running example).
const SuperSpreaderSource = `
// Super-spreader detection: a source contacting more than fanoutLimit
// distinct destinations within a sweep is flagged; seeds on different
// switches exchange candidate sources so spreaders splitting their
// fan-out across ingress points are still caught (seed-to-seed
// communication, §II-C-b).
machine SuperSpreader {
  place all;
  probe pkts = Probe { .ival = 1, .what = proto "tcp" };
  time sweep = 500;
  external long fanoutLimit;
  map fanout;
  string spreader;

  state scan {
    util (res) {
      if (res.vCPU >= 0.5 and res.RAM >= 256) then {
        return min(res.vCPU * 2, res.RAM / 128);
      }
    }
    when (pkts as p) do {
      if (p.syn and not p.ack) then {
        map dsts = map_get(fanout, p.srcIP, map_new());
        map_set(dsts, p.dstIP, 1);
        fanout = map_set(fanout, p.srcIP, dsts);
      }
    }
    when (sweep as now) do {
      list srcs = map_keys(fanout);
      long i = 0;
      while (i < list_len(srcs)) {
        string s = list_get(srcs, i);
        map dsts = map_get(fanout, s, map_new());
        if (map_len(dsts) >= fanoutLimit) then {
          spreader = s;
          transit flag;
        }
        if (map_len(dsts) >= fanoutLimit / 2) then {
          // Half the limit locally: other ingress switches may hold
          // the rest of the fan-out.
          send s to SuperSpreader;
        }
        i = i + 1;
      }
      fanout = map_new();
    }
  }
  state flag {
    util (res) { return 100; }
    when (enter) do {
      send spreader to harvester;
      fanout = map_new();
      transit scan;
    }
  }
  when (recv string candidate from SuperSpreader) do {
    // A peer saw this source spreading: lower our patience for it by
    // pre-populating half its budget.
    map dsts = map_get(fanout, candidate, map_new());
    map_set(dsts, "peer-reported", 1);
    fanout = map_set(fanout, candidate, dsts);
  }
}
`

// SSHBruteForceSource detects distributed SSH guessing (Javed & Paxson).
const SSHBruteForceSource = `
// SSH brute force: count failed authentications per client; clients
// crossing failLimit get a local drop rule for port 22 and are
// reported for network-wide banning.
machine SSHBrute {
  place all;
  probe ssh = Probe { .ival = 1, .what = dstPort 22 };
  time sweep = 1000;
  external long failLimit;
  map fails;
  string attacker;

  state watch {
    util (res) {
      if (res.vCPU >= 0.25 and res.TCAM >= 2) then { return res.vCPU; }
    }
    when (ssh as p) do {
      if (p.sshAuthFail) then {
        fails = map_set(fails, p.srcIP, map_get(fails, p.srcIP, 0) + 1);
        if (map_get(fails, p.srcIP, 0) >= failLimit) then {
          attacker = p.srcIP;
          transit ban;
        }
      }
    }
    when (sweep as now) do { fails = map_new(); }
  }
  state ban {
    util (res) { return 80; }
    when (enter) do {
      addTCAMRule(srcIP attacker and dstPort 22, drop(), 95);
      send attacker to harvester;
      transit watch;
    }
  }
}
`

// PortScanSource implements sequential-hypothesis-style scan detection
// (Jung et al., S&P'04) simplified to distinct-port counting.
const PortScanSource = `
// Port scan detection: a source probing many distinct ports on one
// destination within the sweep interval is scanning.
machine PortScan {
  place all;
  probe pkts = Probe { .ival = 1, .what = proto "tcp" };
  time sweep = 500;
  external long portLimit;
  map probed;
  string scanner;
  string scanned;

  state watch {
    util (res) {
      if (res.vCPU >= 0.5 and res.RAM >= 128 and res.TCAM >= 2) then {
        return min(res.vCPU * 2, 40);
      }
    }
    when (pkts as p) do {
      if (p.syn and not p.ack) then {
        string key = p.srcIP + ">" + p.dstIP;
        map ports = map_get(probed, key, map_new());
        map_set(ports, p.dstPort, 1);
        probed = map_set(probed, key, ports);
        if (map_len(ports) >= portLimit) then {
          scanner = p.srcIP;
          scanned = p.dstIP;
          transit alarm;
        }
      }
    }
    when (sweep as now) do { probed = map_new(); }
  }
  state alarm {
    util (res) { return 90; }
    when (enter) do {
      addTCAMRule(srcIP scanner and dstIP scanned, drop(), 85);
      send scanner to harvester;
      probed = map_new();
      transit watch;
    }
  }
}
`

// DNSReflectionSource detects amplification attacks (Kührer et al.).
const DNSReflectionSource = `
// DNS reflection/amplification: large DNS responses converging on a
// victim that never asked. Track response bytes per destination; on
// crossing the threshold, drop DNS responses toward the victim locally
// and report the reflector set, once per victim: samples still on the
// bus after the drop rule is in are not a new attack.
machine DNSReflect {
  place all;
  probe dns = Probe { .ival = 1, .what = srcPort 53 and proto "udp" };
  time window = 500;
  external long bytesLimit;
  map respBytes;
  map reflectors;
  map quenched;
  string victim;

  state monitor {
    util (res) {
      if (res.vCPU >= 0.5 and res.RAM >= 128 and res.TCAM >= 2) then {
        return min(res.vCPU * 2, res.PCIe);
      }
    }
    when (dns as p) do {
      if (p.dnsResponse) then {
        respBytes = map_set(respBytes, p.dstIP, map_get(respBytes, p.dstIP, 0) + p.size);
        map refl = map_get(reflectors, p.dstIP, map_new());
        map_set(refl, p.srcIP, 1);
        reflectors = map_set(reflectors, p.dstIP, refl);
        if (map_get(respBytes, p.dstIP, 0) >= bytesLimit and not map_has(quenched, p.dstIP)) then {
          victim = p.dstIP;
          transit quench;
        }
      }
    }
    when (window as now) do {
      respBytes = map_new();
      reflectors = map_new();
    }
  }
  state quench {
    util (res) { return 150; }
    when (enter) do {
      addTCAMRule(dstIP victim and srcPort 53 and proto "udp", drop(), 96);
      quenched = map_set(quenched, victim, 1);
      send map_keys(map_get(reflectors, victim, map_new())) to harvester;
      transit monitor;
    }
  }
  when (recv string unquench from harvester) do {
    removeTCAMRule(dstIP unquench and srcPort 53 and proto "udp");
    quenched = map_del(quenched, unquench);
  }
}
`

// FloodDefenderSource models FloodDefender (Shang et al., INFOCOM'17):
// protecting the SDN control path from table-miss floods. It is the
// largest Tab. I task, combining polling, probing, multi-state logic,
// and staged mitigation.
const FloodDefenderSource = `
// FloodDefender: protect switch control-plane resources under
// SDN-aimed DoS. States: normal -> suspicious (rising table-miss/SYN
// rate, start shielding) -> attack (offload flows to drop rules,
// report) -> cooldown (gradually lift shields).
machine FloodDefender {
  place all;
  poll tableStats = Poll { .ival = 50, .what = port ANY };
  probe pkts = Probe { .ival = 1, .what = proto "tcp" };
  time cooldownTimer = 2000;
  external long missRateLimit;
  external long attackRateLimit;
  long missRate;
  long lastPkts;
  map synBySrc;
  list shielded;
  string offender;

  state normal {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 256 and res.TCAM >= 8) then {
        return min(res.vCPU * 4, res.PCIe * 3);
      }
    }
    when (tableStats as recs) do {
      long total = 0;
      long i = 0;
      while (i < list_len(recs)) {
        PortStats r = list_get(recs, i);
        total = total + r.dRxPkts;
        i = i + 1;
      }
      missRate = total;
      if (missRate >= missRateLimit) then { transit suspicious; }
    }
  }
  state suspicious {
    util (res) { return 120; }
    when (enter) do {
      // Shield: steer new-flow bursts into a rate limiter.
      addTCAMRule(proto "tcp", rateLimit(), 5);
      shielded = list_append(shielded, "tcp-shield");
    }
    when (pkts as p) do {
      if (p.syn and not p.ack) then {
        synBySrc = map_set(synBySrc, p.srcIP, map_get(synBySrc, p.srcIP, 0) + 1);
        if (map_get(synBySrc, p.srcIP, 0) >= attackRateLimit) then {
          offender = p.srcIP;
          transit attack;
        }
      }
    }
    when (tableStats as recs) do {
      long total = 0;
      long i = 0;
      while (i < list_len(recs)) {
        PortStats r = list_get(recs, i);
        total = total + r.dRxPkts;
        i = i + 1;
      }
      if (total < missRateLimit / 2) then { transit cooldown; }
    }
  }
  state attack {
    util (res) { return 250; }
    when (enter) do {
      addTCAMRule(srcIP offender and proto "tcp", drop(), 99);
      send offender to harvester;
      synBySrc = map_new();
      transit suspicious;
    }
  }
  state cooldown {
    util (res) { return 60; }
    when (cooldownTimer as now) do {
      removeTCAMRule(proto "tcp");
      shielded = list_clear();
      synBySrc = map_new();
      transit normal;
    }
    when (recv string reshield from harvester) do { transit suspicious; }
  }
}
`

func init() {
	register(Def{
		Name:        "ddos",
		Description: "Volumetric DDoS detection with local drop-rule mitigation",
		Source:      DDoSSource,
		Machines:    []string{"DDoS"},
		DefaultExternals: map[string]map[string]core.Value{
			"DDoS": {"synThreshold": int64(50)},
		},
		NewHarvester: func() harvest.Logic { return blocklistHarvester() },
	})
	register(Def{
		Name:        "new-tcp",
		Description: "New TCP connection rate accounting",
		Source:      NewTCPConnSource,
		Machines:    []string{"NewTCP"},
	})
	register(Def{
		Name:        "syn-flood",
		Description: "SYN flood detection via handshake imbalance",
		Source:      SYNFloodSource,
		Machines:    []string{"SYNFlood"},
		DefaultExternals: map[string]map[string]core.Value{
			"SYNFlood": {"imbalanceLimit": int64(40)},
		},
	})
	register(Def{
		Name:        "partial-tcp",
		Description: "Partial (never-completing) TCP flow accounting",
		Source:      PartialTCPSource,
		Machines:    []string{"PartialTCP"},
		DefaultExternals: map[string]map[string]core.Value{
			"PartialTCP": {"reportLimit": int64(10)},
		},
	})
	register(Def{
		Name:        "slowloris",
		Description: "Slow-rate HTTP DoS detection with rate-limit reaction",
		Source:      SlowlorisSource,
		Machines:    []string{"Slowloris"},
		DefaultExternals: map[string]map[string]core.Value{
			"Slowloris": {"connLimit": int64(8)},
		},
	})
	register(Def{
		Name:        "superspreader",
		Description: "Super-spreader detection with cross-seed hints",
		Source:      SuperSpreaderSource,
		Machines:    []string{"SuperSpreader"},
		DefaultExternals: map[string]map[string]core.Value{
			"SuperSpreader": {"fanoutLimit": int64(8)},
		},
	})
	register(Def{
		Name:        "ssh-brute",
		Description: "SSH brute-force detection with local banning",
		Source:      SSHBruteForceSource,
		Machines:    []string{"SSHBrute"},
		DefaultExternals: map[string]map[string]core.Value{
			"SSHBrute": {"failLimit": int64(20)},
		},
	})
	register(Def{
		Name:        "port-scan",
		Description: "Port scan detection via distinct-port counting",
		Source:      PortScanSource,
		Machines:    []string{"PortScan"},
		DefaultExternals: map[string]map[string]core.Value{
			"PortScan": {"portLimit": int64(15)},
		},
	})
	register(Def{
		Name:        "dns-reflection",
		Description: "DNS amplification detection with local quenching",
		Source:      DNSReflectionSource,
		Machines:    []string{"DNSReflect"},
		DefaultExternals: map[string]map[string]core.Value{
			"DNSReflect": {"bytesLimit": int64(100_000)},
		},
	})
	register(Def{
		Name:        "flood-defender",
		Description: "Control-plane flood protection with staged mitigation",
		Source:      FloodDefenderSource,
		Machines:    []string{"FloodDefender"},
		DefaultExternals: map[string]map[string]core.Value{
			"FloodDefender": {"missRateLimit": int64(5000), "attackRateLimit": int64(100)},
		},
	})
}

// blocklistHarvester coordinates mitigation globally: once a victim is
// reported by any switch, every switch is told to keep its block for a
// while, then release.
func blocklistHarvester() harvest.Logic {
	return harvest.FuncLogic{
		Message: func(ctx harvest.Context, from soil.SeedRef, v core.Value) {
			victim, ok := v.(string)
			if !ok {
				return
			}
			ctx.Log("harvester: %s reported attack on %s", from.Switch, victim)
		},
	}
}
