package analysis

import (
	"testing"

	"turnup/internal/rng"
	"turnup/internal/textmine"
)

// TestValueRowOrderIgnoresInputOrder hands Table 5's rows to the sorts in
// shuffled orders, as map iteration does, with several totals tied: every
// order must come out as the same table, ties broken by name.
func TestValueRowOrderIgnoresInputOrder(t *testing.T) {
	acts := []ValueRow{
		{Category: textmine.Hacking, MakersUSD: 100, TakersUSD: 200},
		{Category: textmine.Accounts, MakersUSD: 300},
		{Category: textmine.CurrencyExchange, MakersUSD: 900, TakersUSD: 100},
		{Category: textmine.Gaming, TakersUSD: 300},
		{Category: textmine.Tools, MakersUSD: 5, TakersUSD: 5},
		{Category: textmine.EWhoring, MakersUSD: 10},
	}
	meths := []MethodValueRow{
		{Method: textmine.MPayPal, MakersUSD: 50},
		{Method: textmine.MBitcoin, MakersUSD: 400, TakersUSD: 400},
		{Method: textmine.MCashapp, TakersUSD: 50},
		{Method: textmine.MAmazonGC, MakersUSD: 20, TakersUSD: 30},
		{Method: textmine.MZelle, MakersUSD: 1},
	}
	wantActs := []textmine.Category{textmine.CurrencyExchange, textmine.Accounts, textmine.Gaming,
		textmine.Hacking, textmine.EWhoring, textmine.Tools}
	wantMeths := []textmine.Method{textmine.MBitcoin, textmine.MAmazonGC, textmine.MCashapp,
		textmine.MPayPal, textmine.MZelle}

	src := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		a := append([]ValueRow(nil), acts...)
		src.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		m := append([]MethodValueRow(nil), meths...)
		src.Shuffle(len(m), func(i, j int) { m[i], m[j] = m[j], m[i] })
		sortValueRows(a)
		sortMethodRows(m)
		for i, row := range a {
			if row.Category != wantActs[i] {
				t.Fatalf("trial %d: activity row %d = %s, want %s", trial, i, row.Category, wantActs[i])
			}
		}
		for i, row := range m {
			if row.Method != wantMeths[i] {
				t.Fatalf("trial %d: method row %d = %s, want %s", trial, i, row.Method, wantMeths[i])
			}
		}
	}
}
