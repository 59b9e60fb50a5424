// Vertical portal (the paper's second motivating application, §I): build
// an ArnetMiner-style researcher portal by harvesting *every* aspect of
// each featured researcher — RESEARCH, AWARD, EDUCATION, ... — and
// emitting one static profile page per entity with the best snippets per
// aspect, plus a directory page.
//
// Pass -out <dir> to write the HTML; by default the example prints a text
// summary of what the portal would contain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"l2q"
)

func main() {
	out := flag.String("out", "", "directory to write the portal HTML into (empty = print summary)")
	flag.Parse()

	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, l2q.SystemOptions{
		NumEntities:    50,
		PagesPerEntity: 30,
		Seed:           11,
	})
	if err != nil {
		log.Fatal(err)
	}
	ids := sys.EntityIDs()
	featured := ids[44:] // the portal's researchers
	aspects := sys.Aspects()

	// One domain phase per aspect, learned from the non-featured half.
	models := make(map[l2q.Aspect]*l2q.DomainModel, len(aspects))
	for _, a := range aspects {
		dm, err := sys.LearnDomain(a, ids[:25])
		if err != nil {
			log.Fatal(err)
		}
		models[a] = dm
	}

	type profile struct {
		entity   *l2q.Entity
		snippets map[l2q.Aspect][]string
	}
	var profiles []profile
	for _, id := range featured {
		e := sys.Corpus().Entity(id)
		p := profile{entity: e, snippets: make(map[l2q.Aspect][]string)}
		for _, a := range aspects {
			h := sys.NewHarvester(e, a, models[a])
			if _, err := h.RunCtx(context.Background(), l2q.NewL2QBAL(), 2); err != nil {
				log.Fatal(err)
			}
			p.snippets[a] = bestSnippets(sys, a, h.Pages(), 2)
		}
		profiles = append(profiles, p)
		fmt.Printf("profiled %-22s (%d aspects)\n", e.Name, len(aspects))
	}

	if *out == "" {
		fmt.Println()
		for _, p := range profiles {
			fmt.Printf("== %s ==\n", p.entity.Name)
			for _, a := range aspects {
				if sn := p.snippets[a]; len(sn) > 0 {
					fmt.Printf("  [%s] %s\n", a, trim(sn[0], 96))
				}
			}
		}
		fmt.Println("\n(re-run with -out portal/ to emit the HTML site)")
		return
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	var index strings.Builder
	index.WriteString("<!DOCTYPE html>\n<html><head><title>Researcher portal</title></head><body>\n")
	index.WriteString("<h1>Researcher portal</h1>\n<ul>\n")
	for _, p := range profiles {
		page := renderProfile(p.entity, aspects, p.snippets)
		name := fmt.Sprintf("entity-%d.html", p.entity.ID)
		if err := os.WriteFile(filepath.Join(*out, name), []byte(page), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(&index, "<li><a href=%q>%s</a></li>\n", name, escape(p.entity.Name))
	}
	index.WriteString("</ul>\n</body></html>\n")
	if err := os.WriteFile(filepath.Join(*out, "index.html"), []byte(index.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d profiles + index to %s\n", len(profiles), *out)
}

// bestSnippets pulls up to k aspect-labeled paragraph texts from the
// harvested pages, preferring pages the classifier marks relevant.
func bestSnippets(sys *l2q.System, a l2q.Aspect, pages []*l2q.Page, k int) []string {
	var out []string
	for pass := 0; pass < 2 && len(out) < k; pass++ {
		for _, p := range pages {
			if len(out) >= k {
				break
			}
			if (pass == 0) != sys.Relevant(a, p) {
				continue
			}
			for i := range p.Paras {
				if p.Paras[i].Aspect == a {
					out = append(out, p.Paras[i].Text)
					break
				}
			}
		}
	}
	return out
}

func renderProfile(e *l2q.Entity, aspects []l2q.Aspect, snippets map[l2q.Aspect][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html><head><title>%s</title></head><body>\n", escape(e.Name))
	fmt.Fprintf(&b, "<h1>%s</h1>\n<p>seed query: <code>%s</code></p>\n", escape(e.Name), escape(e.SeedQuery))
	for _, a := range aspects {
		sn := snippets[a]
		if len(sn) == 0 {
			continue
		}
		fmt.Fprintf(&b, "<h2>%s</h2>\n", escape(string(a)))
		for _, s := range sn {
			fmt.Fprintf(&b, "<p>%s</p>\n", escape(s))
		}
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
