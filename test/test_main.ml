let () =
  Alcotest.run "chunks"
    [
      ("gf232", Test_gf232.suite);
      ("gf-fast", Test_gf_fast.suite);
      ("wsc2", Test_wsc2.suite);
      ("labelling", Test_labelling.suite);
      ("fragment", Test_fragment.suite);
      ("reassemble", Test_reassemble.suite);
      ("wire", Test_wire.suite);
      ("packet", Test_packet.suite);
      ("framer", Test_framer.suite);
      ("vreassembly", Test_vreassembly.suite);
      ("placement", Test_placement.suite);
      ("compress", Test_compress.suite);
      ("packed", Test_packed.suite);
      ("huffman", Test_huffman.suite);
      ("repack", Test_repack.suite);
      ("demux-connection", Test_demux_connection.suite);
      ("edc", Test_edc.suite);
      ("detect", Test_detect.suite);
      ("cipher", Test_cipher.suite);
      ("netsim", Test_netsim.suite);
      ("baselines", Test_baselines.suite);
      ("appendix-b", Test_apxb.suite);
      ("transport", Test_transport.suite);
      ("persist", Test_persist.suite);
      ("fuzz", Test_fuzz.suite);
      ("decoders", Test_decoders.suite);
      ("overlap", Test_overlap.suite);
      ("parverify", Test_parverify.suite);
      ("check", Test_check.suite);
      ("obs", Test_obs.suite);
      ("flowcache", Test_flowcache.suite);
      ("shed", Test_shed.suite);
      ("int-table", Test_int_table.suite);
      ("alloc", Test_alloc.suite);
    ]
