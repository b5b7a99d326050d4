import sys

from benchmarks.journey.run import main

sys.exit(main())
