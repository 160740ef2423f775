// Healthcare demonstrates the paper's motivating scenario end to end with
// real cryptography over real TCP connections: two hospitals hold private
// patient registries; a medical researcher (the querying party) wants to
// know which patients appear in both, without either hospital disclosing
// records that do not match.
//
// The three parties run the session roles as goroutines connected by
// localhost TCP: each hospital calls pprl.RunHolder on its own registry,
// and the researcher calls pprl.RunQuery. The same calls over
// pprl.NewSMCNetConn work across machines (cmd/pprl-party wraps them as a
// binary).
//
//	go run ./examples/healthcare
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"

	"pprl"
)

func main() {
	// --- The hospitals' private registries -------------------------------
	schema := pprl.AdultSchema()
	population := pprl.GenerateAdult(schema, 300, 1)
	hospitalA, hospitalB := pprl.SplitOverlap(population, rand.New(rand.NewSource(2)))
	fmt.Printf("Hospital A: %d patients.  Hospital B: %d patients.\n", hospitalA.Len(), hospitalB.Len())

	// Wire the parties over localhost TCP: researcher<->A, researcher<->B,
	// A<->B.
	qa, aq := tcpPair()
	qb, bq := tcpPair()
	ab, ba := tcpPair()

	// --- The hospitals: each anonymizes its own registry (k = 8),
	// publishes the view and serves the SMC protocol -----------------------
	errs := make(chan error, 2)
	go func() { errs <- pprl.RunHolder(aq, ab, pprl.HolderConfig{Data: hospitalA, K: 8}, true) }()
	go func() { errs <- pprl.RunHolder(bq, ba, pprl.HolderConfig{Data: hospitalB, K: 8}, false) }()

	// --- The researcher: broadcasts the classifier, blocks on the public
	// views and resolves the unknown pairs most likely to match first,
	// under a budget of 1.5% of all pairs ----------------------------------
	res, err := pprl.RunQuery(qa, qb, pprl.QueryConfig{
		Schema:            schema,
		QIDs:              pprl.DefaultAdultQIDs(),
		Theta:             0.05,
		AllowanceFraction: 0.015,
		KeyBits:           1024,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("Anonymized views: %d and %d generalization sequences (k=8).\n",
		res.AliceView.NumSequences(), res.BobView.NumSequences())
	fmt.Printf("Blocking: %.2f%% of %d pairs decided for free; %d pairs unknown.\n",
		100*res.BlockingEfficiency, res.TotalPairs, res.UnknownPairs)
	// The researcher holds record handles; each hospital maps its own
	// handles back to patients.
	for _, m := range res.Matches {
		fmt.Printf("  match: patient A#%d ↔ B#%d\n",
			hospitalA.Record(m.I).EntityID, hospitalB.Record(m.J).EntityID)
	}
	fmt.Printf("SMC step: %d invocations at 1024-bit keys over TCP; %d matched pairs in all.\n",
		res.Invocations, len(res.Matches))
	fmt.Println("The researcher learned only the matching pairs; the hospitals exchanged")
	fmt.Println("only anonymized views and ciphertexts.")
}

// tcpPair opens a loopback TCP connection and wraps both ends as protocol
// transports.
func tcpPair() (pprl.SMCConn, pprl.SMCConn) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	server := <-ch
	if server.err != nil {
		log.Fatal(server.err)
	}
	return pprl.NewSMCNetConn(client), pprl.NewSMCNetConn(server.c)
}
