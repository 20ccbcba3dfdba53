from sp2brst.cli import main

raise SystemExit(main())
