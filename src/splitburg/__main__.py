from splitburg.cli import main

raise SystemExit(main())
