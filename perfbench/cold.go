package main

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"path/filepath"
	"time"

	"repaircount"
	"repaircount/internal/relational"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// count-cold: offline library counting over a seeded corpus of
// MultiComponent, SkewedComponents, IEHeavy and Employee snapshots. Each
// count opens its snapshot fresh (OpenSnapshot → ParseQuery → Counter →
// Count), so no memo carries over: the planner and the exact engines do
// nearly all the work, and no server, cache or wire code runs.

// coldItem is one corpus entry: a snapshot file, its query and the count
// the oracle expects.
type coldItem struct {
	family string // mc, skew, ie or emp
	path   string
	query  string
	want   *big.Int
	facts  int
}

// coldShapes are the fixed corpus shapes; the seed picks the Employee
// instances, their query, and the order the corpus is counted in.
const (
	coldMC0, coldMC1, coldMC2       = 16, 12, 2
	coldSkew0, coldSkew1, coldSkewS = 32, 12, 1.0
	coldIE0, coldIE1, coldIE2       = 8, 24, 4
	coldEmp0, coldEmp1, coldEmpRate = 2000, 5, 0.4
	coldPerFamily                   = 2
)

// multiComponentCount is #CQA of MultiComponent(n, b, s) in closed form:
// a component avoids its disjunct iff no block picks 'v0' or no block
// picks 'v1', so #¬Q_c = 2(s−1)^b − (s−2)^b.
func multiComponentCount(n, b, s int64) *big.Int {
	x := func(base, e int64) *big.Int { return new(big.Int).Exp(big.NewInt(base), big.NewInt(e), nil) }
	non := new(big.Int).Sub(new(big.Int).Mul(big.NewInt(2), x(s-1, b)), x(s-2, b))
	total := x(s, n*b)
	return total.Sub(total, non.Exp(non, big.NewInt(n), nil))
}

// writeCorpus generates the corpus into dir and returns it in counting
// order. Closed forms give the expected counts of the structured
// families; Employee counts are checked against plain enumeration.
func writeCorpus(dir string, seed uint64) ([]coldItem, error) {
	rng := rngFor(seed, 3)
	var items []coldItem
	for i := range coldPerFamily {
		add := func(family string, db *repaircount.Database, ks *repaircount.KeySet, q string, want *big.Int) error {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.cqs", family, i))
			if err := store.WriteFile(path, db, ks); err != nil {
				return err
			}
			items = append(items, coldItem{family: family, path: path, query: q, want: want, facts: db.Len()})
			return nil
		}
		db, ks, q := workload.MultiComponent(coldMC0, coldMC1, coldMC2)
		if err := add("mc", db, ks, q.String(), multiComponentCount(coldMC0, coldMC1, coldMC2)); err != nil {
			return nil, err
		}
		db, ks, q = workload.SkewedComponents(coldSkew0, coldSkew1, coldSkewS)
		if err := add("skew", db, ks, q.String(), workload.SkewedComponentsCount(coldSkew0, coldSkew1, coldSkewS)); err != nil {
			return nil, err
		}
		db, ks, q = workload.IEHeavy(coldIE0, coldIE1, coldIE2)
		if err := add("ie", db, ks, q.String(), workload.IEHeavyCount(coldIE0, coldIE1, coldIE2)); err != nil {
			return nil, err
		}
		edb, eks := workload.Employee(rand.New(rand.NewPCG(rng.Uint64(), rng.Uint64())), coldEmp0, coldEmp1, coldEmpRate)
		id1 := 1 + rng.IntN(coldEmp0)
		id2 := 1 + (id1+rng.IntN(coldEmp0-1))%coldEmp0
		eq := workload.SameDeptQuery(id1, id2)
		if err := add("emp", edb, eks, eq.String(), sameDeptCount(edb, eks, id1, id2)); err != nil {
			return nil, err
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items, nil
}

// sameDeptCount is #CQA of SameDeptQuery(id1, id2) in closed form: the
// repairs of the other blocks times the pairs of id1 and id2 facts that
// agree on the department.
func sameDeptCount(db *repaircount.Database, ks *repaircount.KeySet, id1, id2 int) *big.Int {
	var b1, b2 []relational.Fact
	for _, f := range db.FactsFor("Employee") {
		switch f.Args[0] {
		case relational.IntConst(id1):
			b1 = append(b1, f)
		case relational.IntConst(id2):
			b2 = append(b2, f)
		}
	}
	pairs := int64(0)
	for _, f1 := range b1 {
		for _, f2 := range b2 {
			if f1.Args[2] == f2.Args[2] {
				pairs++
			}
		}
	}
	n := relational.NumRepairsOfBlocks(relational.Blocks(db, ks))
	n.Quo(n, big.NewInt(int64(len(b1)*len(b2))))
	return n.Mul(n, big.NewInt(pairs))
}

// coldCount is one cold count: open, parse, build the counter, count.
func coldCount(it coldItem) (*big.Int, repaircount.EngineKind, error) {
	snap, err := repaircount.OpenSnapshot(it.path)
	if err != nil {
		return nil, 0, err
	}
	defer snap.Close()
	q, err := repaircount.ParseQuery(it.query)
	if err != nil {
		return nil, 0, err
	}
	c, err := snap.Counter(q)
	if err != nil {
		return nil, 0, err
	}
	return c.Count()
}

func countCold(e *env) (result, error) {
	corpus, setup, err := setupRepeated(func(i int) ([]coldItem, error) {
		dir := filepath.Join(e.dir, fmt.Sprintf("setup-%d", i))
		if err := mkdir(dir); err != nil {
			return nil, err
		}
		items, err := writeCorpus(dir, e.seed)
		if err != nil {
			return nil, err
		}
		n, _, err := coldCount(items[0])
		if err != nil {
			return nil, err
		}
		if n.Cmp(items[0].want) != 0 {
			return nil, fmt.Errorf("first count of %s is %s, want %s", items[0].family, n, items[0].want)
		}
		return items, nil
	}, func([]coldItem) {})
	if err != nil {
		return result{}, err
	}
	if e.trace {
		return traceCold(e, corpus)
	}
	p := coldLoop(corpus, time.Duration(e.seconds*float64(time.Second)))
	rss, err := peakRSSMB(0)
	if err != nil {
		return result{}, err
	}
	m := metrics{
		"setup_s":          setup,
		"latency_p50_ms":   quantile(p.calmLatenciesMS(), 0.5),
		"throughput_per_s": p.calmThroughput(),
		"rss_mb":           rss,
	}
	return finish(e, m, p)
}

// coldLoop counts the corpus round-robin on one goroutine for dur,
// checking every count.
func coldLoop(corpus []coldItem, dur time.Duration) *phase {
	p := &phase{}
	meter := meterSteal()
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		it := corpus[i%len(corpus)]
		sent := time.Since(start)
		n, _, err := coldCount(it)
		end := time.Since(start)
		v := ok
		switch {
		case err != nil:
			v = fail
		case n.Cmp(it.want) != 0:
			v = wrong
		}
		p.samples = append(p.samples, sample{req: i % len(corpus), due: sent, sent: sent, end: end, lat: end - sent, v: v})
	}
	p.elapsed = time.Since(start)
	p.steal = meter.end()
	return p
}
