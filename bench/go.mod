module s3cbcd/bench

go 1.22

require s3cbcd v0.0.0

replace s3cbcd => ../
