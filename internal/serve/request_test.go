package serve

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/sparse"
)

func TestDecodeRequestValid(t *testing.T) {
	in := `{
	  "tenant": "acme.prod",
	  "seed": 99,
	  "timeout_ms": 250,
	  "config": {
	    "tech": "MLC-RRAM",
	    "encoding": "BitM+IdxSync",
	    "default": {"bpc": 2, "ecc": true},
	    "overrides": {"values": {"bpc": 1}},
	    "retention_years": 3.5,
	    "ecc_block_bits": 128,
	    "degrade": true
	  }
	}`
	req, cfg, _, err := DecodeRequest(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if req.Tenant != "acme.prod" || req.Seed != 99 || req.TimeoutMS != 250 {
		t.Errorf("request %+v", req)
	}
	if cfg.Encoding != sparse.KindBitMaskIdxSync || cfg.Tech.Name != "MLC-RRAM" {
		t.Errorf("config %s", cfg.String())
	}
	if cfg.RetentionYears != 3.5 || cfg.ECCBlockBits != 128 || !cfg.Degrade {
		t.Errorf("config extras %+v", cfg)
	}
	if p := cfg.Overrides["values"]; p.BPC != 1 || p.ECC {
		t.Errorf("override %+v", p)
	}
	if !cfg.Default.ECC || cfg.Default.BPC != 2 {
		t.Errorf("default %+v", cfg.Default)
	}
}

func TestDecodeRequestDefaultsTenant(t *testing.T) {
	req, _, _, err := DecodeRequest(strings.NewReader(
		`{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}}`), false)
	if err != nil {
		t.Fatal(err)
	}
	if req.Tenant != "default" {
		t.Errorf("tenant %q, want \"default\"", req.Tenant)
	}
}

func TestDecodeRequestLifetime(t *testing.T) {
	in := `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}},` +
		`"lifetime":{"years":10,"scrub_interval_years":2,"floor_delta":0.05}}`
	_, _, lp, err := DecodeRequest(strings.NewReader(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Years != 10 || lp.ScrubIntervalYears != 2 || lp.FloorDelta != 0.05 {
		t.Errorf("policy %+v", lp)
	}
	if lp.EpochCount() != 5 {
		t.Errorf("epochs %d, want 5", lp.EpochCount())
	}
}

// TestDecodeRequest24: 2:4 is reachable over the wire under both of
// its spellings, with an override for its position metadata.
func TestDecodeRequest24(t *testing.T) {
	for _, name := range []string{"2:4", "24"} {
		in := fmt.Sprintf(`{"config":{"tech":"MLC-CTT","encoding":%q,"default":{"bpc":3},"overrides":{"meta24":{"bpc":2,"ecc":true}}}}`, name)
		_, cfg, _, err := DecodeRequest(strings.NewReader(in), false)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if cfg.Encoding != sparse.Kind24 {
			t.Errorf("%s: decoded encoding %v, want 2:4", name, cfg.Encoding)
		}
		if p := cfg.Overrides["meta24"]; p.BPC != 2 || !p.ECC {
			t.Errorf("%s: meta24 override %+v", name, p)
		}
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	cases := []struct {
		name, in string
		lifetime bool
		wantSub  string
	}{
		{"nan retention", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"retention_years":1e999}}`, false, "parsing"},
		{"negative override", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"overrides":{"values":{"bpc":-2}}}}`, false, "must not be negative"},
		{"unknown override stream", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"overrides":{"wavelets":{"bpc":1}}}}`, false, "wavelets"},
		// Overrides for streams the encoding never stores would be dead
		// config that still changes the config ID.
		{"csr bitmask override", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"overrides":{"bitmask":{"bpc":1}}}}`, false, `"bitmask"`},
		{"bitmask colidx override", `{"config":{"tech":"MLC-CTT","encoding":"bitmask","default":{"bpc":3},"overrides":{"colidx":{"bpc":1}}}}`, false, `"colidx"`},
		{"csr meta24 override", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"overrides":{"meta24":{"bpc":1}}}}`, false, `"meta24"`},
		{"2:4 rowcount override", `{"config":{"tech":"MLC-CTT","encoding":"2:4","default":{"bpc":3},"overrides":{"rowcount":{"bpc":1}}}}`, false, `"rowcount"`},
		{"unknown encoding", `{"config":{"tech":"MLC-CTT","encoding":"coo","default":{"bpc":3}}}`, false, "2:4"},
		{"empty body", ``, false, "parsing"},
		{"tenant too long", `{"tenant":"` + strings.Repeat("a", 65) + `","config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}}`, false, "tenant"},
		{"scrub interval negative", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}},"lifetime":{"years":5,"scrub_interval_years":-1}}`, true, "must not be negative"},
		{"epoch cap", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}},"lifetime":{"years":1000000,"scrub_interval_years":0.001}}`, true, "cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := DecodeRequest(strings.NewReader(tc.in), tc.lifetime)
			if err == nil {
				t.Fatalf("decoded invalid input %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// FuzzDecodeRequest pins the decoder's no-panic contract: any byte
// sequence either decodes into a configuration that passes the same
// validation the pipeline trusts, or is rejected with an error — never a
// panic, never a NaN or negative magnitude smuggled through.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}}`), false)
	f.Add([]byte(`{"tenant":"acme","seed":7,"config":{"tech":"MLC-RRAM","encoding":"bitmask","default":{"bpc":2,"ecc":true},"overrides":{"values":{"bpc":1}}}}`), false)
	f.Add([]byte(`{"config":{"tech":"SLC-RRAM","encoding":"dense","default":{"bpc":1}},"lifetime":{"years":10,"scrub_interval_years":2}}`), true)
	f.Add([]byte(`{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":-3}}}`), false)
	f.Add([]byte(`{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"retention_years":-1}}`), false)
	f.Add([]byte(`{"timeout_ms":-1}`), false)
	f.Add([]byte(`{"config":{"tech":"","encoding":""}}`), true)
	f.Add([]byte(`null`), false)
	f.Add([]byte(`{"config":{"tech":"MLC-CTT","encoding":"2:4","default":{"bpc":3},"overrides":{"meta24":{"bpc":3,"ecc":true}}}}`), false)
	f.Fuzz(func(t *testing.T, data []byte, lifetime bool) {
		req, cfg, lp, err := DecodeRequest(strings.NewReader(string(data)), lifetime)
		if err != nil {
			return
		}
		// Whatever decodes must satisfy the pipeline's own validators and
		// the wire invariants the server relies on.
		if req.Tenant == "" || !validTenant(req.Tenant) {
			t.Fatalf("accepted tenant %q", req.Tenant)
		}
		if req.TimeoutMS < 0 {
			t.Fatalf("accepted timeout_ms %d", req.TimeoutMS)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config that fails Validate: %v", err)
		}
		if cfg.RetentionYears < 0 {
			t.Fatalf("accepted retention %g", cfg.RetentionYears)
		}
		for name := range cfg.Overrides {
			if !slices.Contains(cfg.Encoding.Streams(), name) {
				t.Fatalf("accepted override %q, which %v does not store", name, cfg.Encoding)
			}
		}
		if lifetime {
			if err := lp.Validate(); err != nil {
				t.Fatalf("accepted lifetime policy that fails Validate: %v", err)
			}
		}
	})
}
