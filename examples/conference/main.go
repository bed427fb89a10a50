// Conference: the demo's "conference data sharing system" (§4) —
// participants insert contact data and recommendations (restaurants,
// bars, sights) from their own machines; peers come and go; updates
// propagate with loose consistency; skyline queries pick restaurants.
package main

import (
	"fmt"
	"log"
	"time"

	"unistore"
)

func main() {
	// PlanetLab-like wide-area delays, 3 replicas per partition,
	// periodic anti-entropy — the robustness configuration.
	c := unistore.New(unistore.Config{
		Peers:               48,
		Replicas:            3,
		Latency:             unistore.LatencyPlanetLab,
		AntiEntropyInterval: 10 * time.Second,
		Seed:                11,
	})

	// Participants share contacts...
	people := []struct {
		name, email string
		office      string
	}{
		{"marcel", "marcel@tu-ilmenau.de", "Z2044"},
		{"kai-uwe", "kus@tu-ilmenau.de", "Z2045"},
		{"manfred", "manfred@epfl.ch", "BC148"},
		{"roman", "roman@epfl.ch", "BC149"},
	}
	var contacts []unistore.Triple
	for _, p := range people {
		contacts = append(contacts, unistore.NewTuple(unistore.GenerateOID("contact")).
			Set("name", unistore.S(p.name)).
			Set("email", unistore.S(p.email)).
			Set("office", unistore.S(p.office)).Triples()...)
	}
	c.BulkInsert(contacts...)

	// ...and restaurant recommendations with price and rating.
	restaurants := []struct {
		name   string
		price  float64
		rating float64
	}{
		{"Chez Pierre", 85, 9.1},
		{"Noodle Bar", 18, 7.4},
		{"Trattoria Roma", 40, 8.2},
		{"Burger Hut", 12, 5.0},
		{"Le Gourmet", 120, 9.5},
		{"Tapas Corner", 30, 8.0},
		{"Curry House", 22, 8.6},
	}
	var recs []unistore.Triple
	for _, r := range restaurants {
		recs = append(recs, unistore.NewTuple(unistore.GenerateOID("rest")).
			Set("restname", unistore.S(r.name)).
			Set("price", unistore.N(r.price)).
			Set("rating", unistore.N(r.rating)).Triples()...)
	}
	c.BulkInsert(recs...)
	fmt.Printf("conference data shared across %d peers (3 replicas each)\n\n", c.Size())

	// Where to eat tonight: cheap AND good — a skyline.
	res, err := c.Query(`SELECT ?r,?p,?s WHERE {
		(?x,'restname',?r) (?x,'price',?p) (?x,'rating',?s)
	} ORDER BY SKYLINE OF ?p MIN, ?s MAX`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("restaurant skyline (price MIN, rating MAX):")
	for _, b := range res.Bindings {
		fmt.Printf("  %-16s CHF %3.0f  %.1f/10\n", b["r"].Str, b["p"].Num, b["s"].Num)
	}
	fmt.Printf("(answered in %v simulated over PlanetLab-like links)\n\n", res.Elapsed)

	// A participant corrects their office — loosely consistent update.
	var oid string
	who, err := c.Query(`SELECT ?x WHERE {(?x,'name','marcel')}`)
	if err != nil || len(who.Bindings) == 0 {
		log.Fatal("marcel not found")
	}
	oid = who.Bindings[0]["x"].Str
	c.Update(unistore.T(oid, "office", "Z2088"))
	check, err := c.Query(`SELECT ?o WHERE {('` + oid + `','office',?o)}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after update, marcel's office: %v\n\n", check.Rows())

	// Churn: a fifth of the peers vanish mid-conference; replicated
	// data stays available, best-effort.
	for i := 0; i < c.Size(); i += 5 {
		c.Kill(i)
	}
	after, err := c.Query(`SELECT ?r WHERE {(?x,'restname',?r)}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after killing %d peers: %d/%d restaurants still reachable\n",
		(c.Size()+4)/5, len(after.Bindings), len(restaurants))
}
