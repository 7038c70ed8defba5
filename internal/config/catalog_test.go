package config

import "time"

// testCatalog is the fixture the config package's own tests compile
// against: three apps shaped like the SDK's built-ins, so documents,
// wire scenarios and fuzz corpora exercise every parameter kind and
// bound without depending on the root package's table.
func testCatalog() *Catalog {
	c := NewCatalog()
	for _, a := range []AppSchema{
		{Name: "chord", Params: []Param{
			{Name: "bits", Kind: KindInt, Default: 24, Min: 1, Max: 52, Bounded: true},
			{Name: "fault_tolerant", Kind: KindBool, Default: false},
			{Name: "lookups_per_min", Kind: KindInt, Default: 0, Min: 0, Max: 600, Bounded: true},
			{Name: "report", Kind: KindBool, Default: false},
		}},
		{Name: "cyclon", Params: []Param{
			{Name: "view_size", Kind: KindInt, Default: 20, Min: 1, Max: 128, Bounded: true},
			{Name: "shuffle_len", Kind: KindInt, Default: 8, Min: 1, Max: 64, Bounded: true},
			{Name: "shuffle_every", Kind: KindDuration, Default: 5 * time.Second,
				Min: float64(100 * time.Millisecond), Max: float64(10 * time.Minute), Bounded: true},
			{Name: "report", Kind: KindBool, Default: false},
		}},
		{Name: "bittorrent", Params: []Param{
			{Name: "size", Kind: KindSize, Default: 4 << 20, Min: 1 << 10, Max: 1 << 30, Bounded: true},
			{Name: "piece_size", Kind: KindSize, Default: 64 << 10, Min: 1 << 10, Max: 64 << 20, Bounded: true},
		}},
	} {
		if err := c.Register(a); err != nil {
			panic(err)
		}
	}
	return c
}

// testOptions compiles against testCatalog.
func testOptions() Options { return Options{Catalog: testCatalog()} }
