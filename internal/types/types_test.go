package types

import (
	"reflect"
	"testing"
)

func TestDictionaryAddAndLookup(t *testing.T) {
	d := NewDictionary()
	d.Add("hpc", "topic")
	d.Add("Data Mining", "topic") // normalized to lowercase
	d.Add("ijhpca", "journal")

	if got := d.TypesOf("hpc"); !reflect.DeepEqual(got, []Type{"topic"}) {
		t.Errorf("TypesOf(hpc) = %v", got)
	}
	if got := d.TypesOf("data mining"); !reflect.DeepEqual(got, []Type{"topic"}) {
		t.Errorf("TypesOf(data mining) = %v", got)
	}
	if got := d.TypesOf("unknown"); got != nil {
		t.Errorf("TypesOf(unknown) = %v, want nil", got)
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
}

func TestDictionaryDuplicateAdd(t *testing.T) {
	d := NewDictionary()
	d.Add("hpc", "topic")
	d.Add("hpc", "topic")
	if got := d.TypesOf("hpc"); len(got) != 1 {
		t.Errorf("duplicate add produced %v", got)
	}
	d.Add("hpc", "acronym")
	if got := d.TypesOf("hpc"); len(got) != 2 {
		t.Errorf("multi-type word has %v", got)
	}
}

func TestDictionaryPhrases(t *testing.T) {
	d := NewDictionary()
	d.AddAll("topic", "ai", "data mining", "machine learning")
	got := d.Phrases()
	want := []string{"data mining", "machine learning"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Phrases = %v, want %v", got, want)
	}
}

func TestDictionaryTypesAndWordsOf(t *testing.T) {
	d := NewDictionary()
	d.AddAll("topic", "ai", "hpc")
	d.AddAll("journal", "tkde")
	if got := d.Types(); !reflect.DeepEqual(got, []Type{"journal", "topic"}) {
		t.Errorf("Types = %v", got)
	}
	if got := d.WordsOf("topic"); !reflect.DeepEqual(got, []string{"ai", "hpc"}) {
		t.Errorf("WordsOf(topic) = %v", got)
	}
}

func TestRegexRecognizer(t *testing.T) {
	r := NewRegexRecognizer()
	tests := []struct {
		word string
		want []Type
	}{
		{"snir@illinois.edu", []Type{"email"}}, // '@' keeps it out of the url class
		{"www.edmunds.com", []Type{"url"}},
		{"cs.illinois.edu", []Type{"url"}},
		{"217-333-1234", []Type{"phonenum"}},
		{"2009", []Type{"year"}},
		{"1995", []Type{"year"}},
		{"2150", nil},
		{"$32,500", []Type{"money"}},
		{"$28k", []Type{"money"}},
		{"plain", nil},
	}
	for _, tc := range tests {
		got := r.TypesOf(tc.word)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("TypesOf(%q) = %v, want %v", tc.word, got, tc.want)
		}
	}
}

func TestChainPriority(t *testing.T) {
	d := NewDictionary()
	d.Add("2009", "modelyear") // KB entry should shadow the regex 〈year〉
	c := Chain{d, NewRegexRecognizer()}

	if got := c.TypesOf("2009"); !reflect.DeepEqual(got, []Type{"modelyear"}) {
		t.Errorf("chain TypesOf(2009) = %v", got)
	}
	if got := c.TypesOf("1987"); !reflect.DeepEqual(got, []Type{"year"}) {
		t.Errorf("chain TypesOf(1987) = %v", got)
	}
	if got := c.TypesOf("nothing"); got != nil {
		t.Errorf("chain TypesOf(nothing) = %v", got)
	}
}

func TestTypeRender(t *testing.T) {
	if got := Type("topic").Render(); got != "〈topic〉" {
		t.Errorf("Render = %q", got)
	}
}

// TestRegexPrefilterIsExact: TypesOf skips, for plain words (a–z and
// space only), every rule that cannot match one. The skip must never
// change an answer — for the stock rules and for custom ones, including
// rules that do match plain words, case-folded literals whose fold orbit
// reaches ASCII (K, the Kelvin sign, folds to k), and repeats that may be
// empty. The oracle runs every regex unconditionally.
func TestRegexPrefilterIsExact(t *testing.T) {
	r := NewRegexRecognizer()
	r.MustAdd("word", `[a-z]+`)
	r.MustAdd("phrase", `[a-z]+( [a-z]+)+`)
	r.MustAdd("kelvin", `(?i)\x{212A}elvin`)
	r.MustAdd("optdigit", `[0-9]*abc`)
	r.MustAdd("upper", `[A-Z]+`)
	r.MustAdd("alt", `x1|yz`)
	r.MustAdd("dotted", `a.c`)

	wantPlain := map[Type]bool{
		"email": false, "url": false, "phonenum": false, "year": false, "money": false,
		"word": true, "phrase": true, "kelvin": true, "optdigit": true,
		"upper": false, "alt": true, "dotted": true,
	}
	for _, rule := range r.rules {
		if rule.plain != wantPlain[rule.t] {
			t.Errorf("rule %s: plain = %v, want %v", rule.t, rule.plain, wantPlain[rule.t])
		}
	}

	words := []string{
		"", "plain", "data mining", "kelvin", "abc", "12abc", "yz", "x1", "abc ", " ",
		"a c", "abc", "axc", "ABC", "snir@illinois.edu", "www.edmunds.com", "217-333-1234",
		"2009", "$28k", "café", "naïve bayes", "1995 model", "k", "Kelvin",
	}
	for _, w := range words {
		var want []Type
		for _, rule := range r.rules {
			if rule.re.MatchString(w) {
				want = append(want, rule.t)
			}
		}
		if got := r.TypesOf(w); !reflect.DeepEqual(got, want) {
			t.Errorf("TypesOf(%q) = %v, unfiltered %v", w, got, want)
		}
	}
}

func TestSameRecognizer(t *testing.T) {
	d, re := NewDictionary(), NewRegexRecognizer()
	cases := []struct {
		name string
		a, b Recognizer
		want bool
	}{
		{"nil/nil", nil, nil, true},
		{"nil/dict", nil, d, false},
		{"dict/dict", d, d, true},
		{"dict/other dict", d, NewDictionary(), false},
		{"dict/regex", d, re, false},
		{"chain/same parts", Chain{d, re}, Chain{d, re}, true},
		{"chain/other part", Chain{d, re}, Chain{d, NewRegexRecognizer()}, false},
		{"chain/shorter", Chain{d, re}, Chain{d}, false},
		{"chain/non-chain", Chain{d}, d, false},
		{"nested chain", Chain{Chain{d}, re}, Chain{Chain{d}, re}, true},
	}
	for _, tc := range cases {
		if got := Same(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: Same = %v, want %v", tc.name, got, tc.want)
		}
	}
}
