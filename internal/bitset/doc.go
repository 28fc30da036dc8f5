// Package bitset provides dense row bitmaps used to represent sets of
// matching log-entry rows during query evaluation.
//
// LogGrep's keyword matching produces, per group, a set of row numbers that
// satisfy each capsule constraint. Possible matches intersect those sets and
// the union across possible matches forms a search string's result (§5.1 of
// the paper). Bitsets make those And/Or/AndNot combinations cheap.
//
// Set is a writable bitmap. View is a read-only one passed by value: the
// empty and the full View hold no words, and the View combinators copy on
// write, so a query engine can share and cache results freely and allocate
// only for the partial sets it actually produces.
package bitset
