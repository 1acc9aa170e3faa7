// Package names provides the personal-name substrate: per-community name
// corpora, gendered first names, nickname and transliteration equivalence
// classes, and the corruption machinery (clerical errors, spelling
// variants) the dataset generator uses to emit realistic report variants.
//
// The Names Project preprocessing built equivalence classes of first names,
// last names, and places to cope with over 30 languages and four alphabets;
// this package plays both roles: it produces the variants and exposes the
// equivalence classes a preprocessing step would recover.
package names

import (
	"math/rand"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Gender codes follow the paper's item encoding ("G 0" / "G 1").
const (
	Male   = "0"
	Female = "1"
)

// Corpus holds the name pools of one community.
type Corpus struct {
	MaleFirst   []string
	FemaleFirst []string
	Last        []string
	Professions []string
}

// nicknameClasses maps a canonical first name to its nicknames and foreign
// forms. All members of a class are the "same name" for equivalence
// purposes.
var nicknameClasses = map[string][]string{
	"Avraham":  {"Avram", "Abram", "Abraham", "Abramo"},
	"Yitzhak":  {"Isak", "Isacco", "Izak", "Itzik"},
	"Moshe":    {"Moise", "Moses", "Moshko", "Mose"},
	"Yaakov":   {"Jakob", "Giacomo", "Yankel", "Jacob"},
	"Shmuel":   {"Samuel", "Samuele", "Shmulik", "Zanvel"},
	"Yosef":    {"Josef", "Giuseppe", "Yosl", "Joseph"},
	"David":    {"Davide", "Dovid", "Dudl"},
	"Eliahu":   {"Elia", "Elias", "Elye"},
	"Guido":    {"Guido"},
	"Massimo":  {"Massimo"},
	"Donato":   {"Donat"},
	"Italo":    {"Italo"},
	"Sara":     {"Sarah", "Sura", "Serena"},
	"Rivka":    {"Rebecca", "Rifka", "Rywka"},
	"Lea":      {"Leah", "Laja", "Leja"},
	"Rachel":   {"Rachele", "Ruchel", "Rokhl"},
	"Hana":     {"Hanna", "Anna", "Chana", "Hannah"},
	"Ester":    {"Esther", "Estera", "Estela", "Stella"},
	"Miriam":   {"Maria", "Mirjam", "Mirel"},
	"Helena":   {"Helene", "Elena", "Ilona"},
	"Olga":     {"Olga"},
	"Zimbul":   {"Zimbul"},
	"Bella":    {"Bela", "Beila", "Bejla"},
	"Gittel":   {"Gitla", "Gitel", "Guta"},
	"Frida":    {"Frieda", "Fradel"},
	"Perla":    {"Perl", "Pearl", "Perel"},
	"Dora":     {"Dwojra", "Dvora", "Deborah"},
	"Regina":   {"Rina", "Rejla"},
	"Giulia":   {"Julia", "Julie"},
	"Elsa":     {"Else", "Elza"},
	"Alberto":  {"Albert", "Abert"},
	"Clotilde": {"Clotilda"},
}

var corpora = map[string]*Corpus{
	"Italy": {
		MaleFirst:   []string{"Guido", "Massimo", "Donato", "Italo", "Alberto", "Giacomo", "Giuseppe", "Isacco", "Davide", "Abramo", "Samuele", "Mose", "Emanuele", "Vittorio", "Cesare", "Aldo", "Bruno", "Enzo"},
		FemaleFirst: []string{"Estela", "Helena", "Olga", "Giulia", "Elsa", "Zimbul", "Rachele", "Anna", "Elena", "Stella", "Allegra", "Fortunata", "Ida", "Bianca", "Clara", "Silvia"},
		Last:        []string{"Foa", "Capelluto", "Levi", "Segre", "Ottolenghi", "Treves", "Momigliano", "Lattes", "Artom", "Colombo", "Sacerdote", "Jona", "Luzzati", "Valabrega", "Debenedetti", "Fubini", "Diena", "Muggia", "Vitale", "Bachi", "Pugliese", "Terracini", "Rimini", "Sonnino"},
		Professions: []string{"merchant", "tailor", "teacher", "physician", "bookkeeper", "shopkeeper", "lawyer", "engineer"},
	},
	"Poland": {
		MaleFirst:   []string{"Avraham", "Yitzhak", "Moshe", "Yaakov", "Shmuel", "Yosef", "David", "Eliahu", "Chaim", "Mordechai", "Hersz", "Szymon", "Leib", "Pinchas", "Zalman", "Baruch", "Mendel", "Wolf"},
		FemaleFirst: []string{"Sara", "Rivka", "Lea", "Rachel", "Hana", "Ester", "Miriam", "Bella", "Gittel", "Frida", "Perla", "Dora", "Fajga", "Chaja", "Golda", "Masza", "Cywia", "Tauba"},
		Last:        []string{"Kesler", "Apoteker", "Postel", "Goldberg", "Rozenberg", "Szwarc", "Wajnsztok", "Grinberg", "Kirszenbaum", "Lewin", "Frydman", "Zylberman", "Kaplan", "Birnbaum", "Sztern", "Rubin", "Edelman", "Goldman", "Perelman", "Wasserman", "Cukierman", "Mandelbaum", "Najman", "Zygelbojm"},
		Professions: []string{"tailor", "cobbler", "carpenter", "baker", "merchant", "rabbi", "watchmaker", "furrier", "glazier"},
	},
	"Germany": {
		MaleFirst:   []string{"Josef", "Jakob", "Samuel", "Moses", "Albert", "Siegfried", "Ludwig", "Hermann", "Kurt", "Walter", "Max", "Fritz", "Erich", "Heinz", "Julius", "Leopold"},
		FemaleFirst: []string{"Hanna", "Else", "Frieda", "Helene", "Rosa", "Martha", "Johanna", "Erna", "Gertrud", "Margarete", "Bertha", "Klara", "Paula", "Recha", "Selma", "Ilse"},
		Last:        []string{"Rosenthal", "Blumenfeld", "Oppenheimer", "Kahn", "Strauss", "Hirsch", "Loewenstein", "Baum", "Stern", "Wolf", "Marx", "Katz", "Adler", "Simon", "Heilbronn", "Gutmann", "Neumann", "Feuchtwanger", "Baruch", "Dreyfus"},
		Professions: []string{"physician", "lawyer", "merchant", "banker", "professor", "pharmacist", "manufacturer", "bookseller"},
	},
	"Hungary": {
		MaleFirst:   []string{"Laszlo", "Istvan", "Sandor", "Ferenc", "Gyorgy", "Miklos", "Imre", "Bela", "Dezso", "Erno", "Jeno", "Zoltan", "Pal", "Janos", "Andor", "Arpad"},
		FemaleFirst: []string{"Ilona", "Erzsebet", "Margit", "Maria", "Iren", "Katalin", "Roza", "Julia", "Aranka", "Gizella", "Olga", "Piroska", "Szeren", "Terez", "Vilma", "Zsofia"},
		Last:        []string{"Kovacs", "Weisz", "Schwartz", "Klein", "Nagy", "Gross", "Braun", "Friedmann", "Gruenwald", "Roth", "Fischer", "Lusztig", "Berkovits", "Moskovits", "Lefkovits", "Hegedus", "Salamon", "Spitzer", "Ungar", "Vamos"},
		Professions: []string{"merchant", "tailor", "innkeeper", "clerk", "physician", "carter", "grain dealer", "butcher"},
	},
	"Greece": {
		MaleFirst:   []string{"Isaac", "Salomon", "Mordohai", "Haim", "Avram", "Yakov", "Sabetai", "Leon", "Moise", "Menahem", "Raphael", "Samuel", "Yeuda", "Nissim", "Pepo", "Bohor"},
		FemaleFirst: []string{"Zimbul", "Rebeka", "Sol", "Allegra", "Djoya", "Ester", "Luna", "Mazaltov", "Rahel", "Sarina", "Fortunee", "Gracia", "Perla", "Reina", "Bellina", "Dudun"},
		Last:        []string{"Capelluto", "Alhadeff", "Franco", "Notrica", "Amato", "Benveniste", "Cohen", "Levy", "Menasce", "Galante", "Hasson", "Israel", "Soriano", "Tarica", "Codron", "Angel", "Almelech", "Berro", "Capuya", "Surmani"},
		Professions: []string{"merchant", "porter", "fisherman", "tobacco worker", "tailor", "peddler", "shopkeeper", "sponge diver"},
	},
	"Soviet": {
		MaleFirst:   []string{"Boris", "Grigori", "Semyon", "Lev", "Naum", "Efim", "Iosif", "Mikhail", "Aron", "Isaak", "Yakov", "Moisei", "Zinovi", "Ilya", "Matvei", "Solomon"},
		FemaleFirst: []string{"Fanya", "Raisa", "Sofia", "Genya", "Tsilya", "Klara", "Berta", "Polina", "Maria", "Evgenia", "Riva", "Mera", "Khana", "Dora", "Ginda", "Basya"},
		Last:        []string{"Abramovich", "Rabinovich", "Kogan", "Gurevich", "Feldman", "Shapiro", "Khaimovich", "Vaisman", "Gershman", "Lifshits", "Pinkus", "Reznik", "Tsukerman", "Berman", "Portnoy", "Slutsky", "Yampolsky", "Zaslavsky", "Krichevsky", "Ostrovsky"},
		Professions: []string{"worker", "engineer", "teacher", "accountant", "doctor", "shoemaker", "driver", "mechanic"},
	},
}

// CorpusFor returns the corpus for a community name (e.g. "Italy"). It
// falls back to the Polish corpus for unknown communities, which is the
// largest population in the Names Project.
func CorpusFor(community string) *Corpus {
	if c, ok := corpora[community]; ok {
		return c
	}
	return corpora["Poland"]
}

// Variants returns the equivalence class of a first name (including the
// name itself). Names without a registered class return a singleton.
func Variants(name string) []string {
	if vs, ok := nicknameClasses[name]; ok {
		out := make([]string, 0, len(vs)+1)
		out = append(out, name)
		for _, v := range vs {
			if v != name {
				out = append(out, v)
			}
		}
		return out
	}
	return []string{name}
}

// canonicalOf maps the fold key of every known variant to its class
// canonical: names are looked up by their fold keys, so Canonical(x) is a
// class's canonical exactly when ClassKeys puts x in that class.
var canonicalOf = func() map[string]string {
	m := make(map[string]string)
	for canon, vs := range nicknameClasses {
		m[FoldKey(canon)] = canon
		for _, v := range vs {
			key := FoldKey(v)
			if _, taken := m[key]; !taken {
				m[key] = canon
			}
		}
	}
	return m
}()

// Canonical returns the equivalence-class representative of a first name,
// or the name itself when no class is registered. This mirrors the Names
// Project preprocessing that folded synonyms and transliterations into
// equivalence classes.
func Canonical(name string) string {
	// An ASCII name that fits is folded into a stack buffer, which the map
	// lookup reads without allocating; others take FoldKey. FoldKey maps
	// an ASCII letter to its upper case, the least member of its fold
	// orbit, and leaves other ASCII bytes alone, exactly as this loop does.
	var buf [64]byte
	if len(name) <= len(buf) {
		key := buf[:len(name)]
		for i := 0; i < len(name); i++ {
			c := name[i]
			if c >= utf8.RuneSelf {
				key = nil
				break
			}
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			key[i] = c
		}
		if key != nil {
			if c, ok := canonicalOf[string(key)]; ok {
				return c
			}
			return name
		}
	}
	if c, ok := canonicalOf[FoldKey(name)]; ok {
		return c
	}
	return name
}

// FoldKey maps a name to a key that is equal for exactly the names
// strings.EqualFold calls equal: every rune becomes the smallest member of
// its unicode.SimpleFold orbit, so "ſ", "s" and "S" share a key where
// strings.ToLower keeps "ſ" apart. Invalid UTF-8 bytes become U+FFFD, as
// EqualFold reads them.
func FoldKey(name string) string {
	return strings.Map(func(r rune) rune {
		lo := r
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if f < lo {
				lo = f
			}
		}
		return lo
	}, name)
}

// classKeys maps the fold key of every registered first name to the fold
// keys of all names it shares an equivalence class with, itself included.
var classKeys = func() map[string][]string {
	m := make(map[string][]string)
	for canon, vs := range nicknameClasses {
		keys := []string{FoldKey(canon)}
		for _, v := range vs {
			if k := FoldKey(v); !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
		for _, k := range keys {
			for _, other := range keys {
				if !slices.Contains(m[k], other) {
					m[k] = append(m[k], other)
				}
			}
		}
	}
	for _, ks := range m {
		slices.Sort(ks)
	}
	return m
}()

// ClassKeys returns the fold keys of every first name in the same
// equivalence class as name, its own key included: x is in name's class
// (names equal under strings.EqualFold always are) exactly when FoldKey(x)
// is among them. An index from FoldKey to
// records answers a class query with one lookup per returned key.
func ClassKeys(name string) []string {
	k := FoldKey(name)
	if ks, ok := classKeys[k]; ok {
		return ks
	}
	return []string{k}
}

// Corrupt applies one clerical error to a name: a substitution
// (Bella→Della), a transposition, a deletion, or an insertion, chosen by
// the rng. Names shorter than 3 runes are returned unchanged.
func Corrupt(rng *rand.Rand, name string) string {
	rs := []rune(name)
	if len(rs) < 3 {
		return name
	}
	switch rng.Intn(4) {
	case 0: // substitute one letter
		i := rng.Intn(len(rs))
		rs[i] = substituteRune(rng, rs[i])
	case 1: // transpose adjacent letters
		i := rng.Intn(len(rs) - 1)
		rs[i], rs[i+1] = rs[i+1], rs[i]
	case 2: // delete one letter
		i := 1 + rng.Intn(len(rs)-1) // keep the initial
		rs = append(rs[:i], rs[i+1:]...)
	default: // duplicate one letter
		i := rng.Intn(len(rs))
		rs = append(rs[:i+1], rs[i:]...)
	}
	return string(rs)
}

// confusable letter pairs mimicking handwriting-deciphering errors.
var confusions = map[rune][]rune{
	'B': {'D', 'R'}, 'D': {'B', 'O'}, 'a': {'o', 'e'}, 'e': {'a', 'o'},
	'o': {'a', 'e'}, 'i': {'j', 'y'}, 'u': {'v', 'n'}, 'n': {'m', 'u'},
	'c': {'e', 'k'}, 'l': {'t', 'i'}, 's': {'z', 'c'}, 'w': {'v', 'u'},
	'k': {'c', 'h'}, 'r': {'n', 'v'}, 't': {'l', 'f'}, 'z': {'s', 'c'},
}

func substituteRune(rng *rand.Rand, r rune) rune {
	if cands, ok := confusions[r]; ok {
		return cands[rng.Intn(len(cands))]
	}
	// Shift within the lowercase alphabet as a fallback.
	if r >= 'a' && r <= 'z' {
		return 'a' + (r-'a'+rune(1+rng.Intn(24)))%26
	}
	return r
}

// PickVariant returns a random member of the name's equivalence class
// (possibly the name itself).
func PickVariant(rng *rand.Rand, name string) string {
	vs := Variants(name)
	return vs[rng.Intn(len(vs))]
}
