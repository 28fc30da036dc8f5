// Package legacy reads the on-disk formats earlier writers wrote and the
// live readers refuse with archive.ErrOldFormat: the checksum-free v1
// archive frames ("LGRPARC1"), and CapsuleBoxes of revision 1
// ("LGRPBOX1", line maps inside the LZMA-lite directory), revision 2
// ("LGRPBOX2", every section LZMA-lite) and revision 3 with an LZMA-lite
// directory ("LGRPBOX3" and directory codec byte 0). v2 archives holding
// such boxes read too.
//
// It has no reconstruction logic of its own. Each retired box is decoded
// with a frozen copy of the directory grammar its writer used, its
// payloads through internal/lzma (or compress/flate for DEFLATE capsules),
// and re-packed by capsule.WriteBox into a current box, which the live
// core reconstructor restores. Restore writes an input's text that way;
// Upgrade writes it as a current archive, and Verify checks an upgraded
// archive against Restore byte for byte.
//
// Only `loggrep upgrade` imports this package: no query, ingest or server
// path links it, or internal/lzma through it.
package legacy
