// Package strmatch implements the string-search substrate LogGrep relies on:
// the fixed-length scan of decompressed, padded Capsules (§5.2 of the
// paper) — bytes.Index over the packed column for substrings and suffixes,
// a masked 8-byte row-head compare for exact values and prefixes — which
// converts byte positions to row numbers by division, and Knuth–Morris–Pratt
// for the variable-width columns of the "w/o fixed" ablation.
package strmatch
