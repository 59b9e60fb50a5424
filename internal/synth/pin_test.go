package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/search"
)

// collectionDigest hashes everything the generator decides: every entity
// (ID, name, seed query) and every page (ID, entity, URL, title, links,
// each paragraph's aspect and text), each field length-prefixed so no two
// collections share a byte stream.
func collectionDigest(entities []*corpus.Entity, pages []*corpus.Page) string {
	h := sha256.New()
	for _, e := range entities {
		putInt(h, int(e.ID))
		putString(h, e.Name)
		putString(h, e.SeedQuery)
	}
	for _, p := range pages {
		putInt(h, int(p.ID))
		putInt(h, int(p.Entity))
		putString(h, p.URL)
		putString(h, p.Title)
		putInt(h, len(p.Links))
		for _, l := range p.Links {
			putInt(h, int(l))
		}
		putInt(h, len(p.Paras))
		for _, para := range p.Paras {
			putString(h, string(para.Aspect))
			putString(h, para.Text)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func putString(h hash.Hash, s string) {
	putInt(h, len(s))
	h.Write([]byte(s))
}

// TestCollectionPinned pins the generated collections byte for byte: a
// collection is its seed and its parameters, so any change to the
// generator — its draws, their order, the text it builds from them — must
// leave these digests as they are. The Keep case is a cluster node's view
// (node 0 of 3, two replicas): its pages must be exactly the unfiltered
// run's pages it keeps.
func TestCollectionPinned(t *testing.T) {
	ring := search.NewRing(3, 2, 0)
	node0 := func(id corpus.PageID) bool { return ring.Holds(0, id) }
	cases := []struct {
		name string
		cfg  Config
		keep bool
		want string
	}{
		{"researchers/paper", DefaultConfig(DomainResearchers), false, "c2fb9e7ccea97f95a95351eb1556baf7a7e3fb351e0d7d3d1c852f290f01bbd4"},
		{"cars/paper", DefaultConfig(DomainCars), false, "28a48340122d60ba62aff4b9f1dc2a298eb83010a31b05866ba37b69d0ebceda"},
		{"researchers/test", TestConfig(DomainResearchers), false, "84d07e9d4e7ed8a8c92cae78c99539001f2e439e35e123bada484d7ef16ecf93"},
		{"cars/test", TestConfig(DomainCars), false, "5108ef42c743086a645f97300941070bb9d69070b886acac675af02a93353812"},
		{"researchers/paper/node0of3", DefaultConfig(DomainResearchers), true, "73d55149f7c7bef18ec7244e2f67d466b5d082c3d00ca3c94eb1bdb90ab4a71a"},
		{"cars/test/node0of3", TestConfig(DomainCars), true, "56a1c2d831566cc8d2f4131f22b9d879221128df4cdcac2d482b6b4b4f37ce4d"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if tc.keep {
				full, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Keep = node0
				g, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var kept []*corpus.Page
				for _, p := range full.Corpus.Pages {
					if node0(p.ID) {
						kept = append(kept, p)
					}
				}
				if len(kept) == len(full.Corpus.Pages) || len(kept) != len(g.Corpus.Pages) {
					t.Fatalf("kept %d of %d pages, predicate selects %d", len(g.Corpus.Pages), len(full.Corpus.Pages), len(kept))
				}
				got := collectionDigest(g.Corpus.Entities, g.Corpus.Pages)
				if want := collectionDigest(full.Corpus.Entities, kept); got != want {
					t.Fatalf("Keep run digest %s, unfiltered run's kept pages %s", got, want)
				}
				if got != tc.want {
					t.Errorf("digest %s, pinned %s", got, tc.want)
				}
				return
			}
			g, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := collectionDigest(g.Corpus.Entities, g.Corpus.Pages); got != tc.want {
				t.Errorf("digest %s, pinned %s", got, tc.want)
			}
		})
	}
}
